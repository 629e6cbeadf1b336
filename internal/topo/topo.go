// Package topo models the entities FUNNEL assesses — services, servers
// and instances — together with the service-relationship graph and the
// impact-set identification of §3.1.
//
// A service (e.g. "search.web") runs as one process per server; that
// process is an instance. KPIs exist at all three scopes (Fig. 1).
// Service relationships come from two sources, mirroring the paper: the
// hierarchical naming convention of the operations team (siblings under
// the same parent exchange requests) and explicitly recorded
// request/response edges.
package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scope identifies which kind of entity a KPI belongs to.
type Scope int

const (
	// ScopeServer is a per-server KPI (CPU context switches, memory
	// utilization, NIC throughput, ...).
	ScopeServer Scope = iota
	// ScopeInstance is a per-process KPI (page view count, response
	// delay, ...).
	ScopeInstance
	// ScopeService is the service-level aggregation of all instance
	// KPIs.
	ScopeService
)

// String names the scope as used in reports.
func (s Scope) String() string {
	switch s {
	case ScopeServer:
		return "server"
	case ScopeInstance:
		return "instance"
	case ScopeService:
		return "service"
	default:
		return "unknown"
	}
}

// KPIKey identifies one KPI time series: a metric of an entity at a
// scope.
type KPIKey struct {
	Scope  Scope
	Entity string // server name, instance ID, or service name
	Metric string // e.g. "cpu.ctxswitch", "mem.util", "pv.count"
}

// String renders the key as scope/entity/metric.
func (k KPIKey) String() string {
	return k.Scope.String() + "/" + k.Entity + "/" + k.Metric
}

// InstanceID forms the canonical instance identifier for a service
// process on a server.
func InstanceID(service, server string) string { return service + "@" + server }

// Instance is a service process on a specific server.
type Instance struct {
	ID      string
	Service string
	Server  string
}

// Topology is the registry of services, servers, instances and service
// relationships. The zero value is not usable; call NewTopology.
//
// A Topology is safe for concurrent use: deployment data may keep
// arriving while assessments read impact sets. Exported methods take
// the lock once; the lower-case helpers they share assume it is held.
type Topology struct {
	mu        sync.RWMutex
	servers   map[string]bool
	services  map[string]bool
	instances map[string]Instance
	// byService lists instance IDs per service, sorted.
	byService map[string][]string
	// edges holds the explicit bidirectional service relationships.
	edges map[string]map[string]bool
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		servers:   make(map[string]bool),
		services:  make(map[string]bool),
		instances: make(map[string]Instance),
		byService: make(map[string][]string),
		edges:     make(map[string]map[string]bool),
	}
}

// AddServer registers a server; idempotent.
func (t *Topology) AddServer(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.servers[name] = true
}

// AddService registers a service; idempotent.
func (t *Topology) AddService(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.services[name] = true
}

// Deploy places an instance of service on server, registering both as a
// side effect, and returns the instance ID. Deploying the same pair
// twice is idempotent.
func (t *Topology) Deploy(service, server string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.services[service] = true
	t.servers[server] = true
	id := InstanceID(service, server)
	if _, ok := t.instances[id]; ok {
		return id
	}
	t.instances[id] = Instance{ID: id, Service: service, Server: server}
	t.byService[service] = insertSorted(t.byService[service], id)
	return id
}

// insertSorted inserts s into sorted slice xs, keeping order.
func insertSorted(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

// Relate records a bidirectional request/response relationship between
// two services (both are registered as a side effect).
func (t *Topology) Relate(a, b string) {
	if a == b {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.services[a] = true
	t.services[b] = true
	if t.edges[a] == nil {
		t.edges[a] = make(map[string]bool)
	}
	if t.edges[b] == nil {
		t.edges[b] = make(map[string]bool)
	}
	t.edges[a][b] = true
	t.edges[b][a] = true
}

// Services returns the registered service names, sorted.
func (t *Topology) Services() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.services))
	for s := range t.services {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Servers returns the registered server names, sorted.
func (t *Topology) Servers() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.servers))
	for s := range t.servers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// InstancesOf returns the instance IDs of a service, sorted.
func (t *Topology) InstancesOf(service string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.byService[service]))
	copy(out, t.byService[service])
	return out
}

// Instance looks up an instance by ID.
func (t *Topology) Instance(id string) (Instance, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	in, ok := t.instances[id]
	return in, ok
}

// ServersOf returns the servers hosting a service, sorted.
func (t *Topology) ServersOf(service string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.serversOf(service)
}

func (t *Topology) serversOf(service string) []string {
	ids := t.byService[service]
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.instances[id].Server)
	}
	sort.Strings(out)
	return out
}

// Related returns the services directly related to service: the
// explicit edges plus the naming-rule siblings (services sharing the
// same dotted parent, §3.1: "FUNNEL derives the relationship among
// services using the naming rules"). The result is sorted and excludes
// the service itself.
func (t *Topology) Related(service string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.related(service)
}

func (t *Topology) related(service string) []string {
	set := make(map[string]bool)
	for s := range t.edges[service] {
		set[s] = true
	}
	if parent := parentName(service); parent != "" {
		prefix := parent + "."
		for s := range t.services {
			if s != service && strings.HasPrefix(s, prefix) && !strings.Contains(s[len(prefix):], ".") {
				set[s] = true
			}
		}
	}
	delete(set, service)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// parentName returns the dotted parent of a hierarchical service name,
// or "" for a top-level name.
func parentName(name string) string {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return ""
	}
	return name[:i]
}

// AffectedServices returns every service transitively related to the
// changed service (the paper's example: a change on Service A affects
// B and D directly and C through B), excluding the changed service
// itself. The result is sorted.
func (t *Topology) AffectedServices(changed string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.affectedServices(changed)
}

func (t *Topology) affectedServices(changed string) []string {
	seen := map[string]bool{changed: true}
	queue := []string{changed}
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range t.related(cur) {
			if seen[next] {
				continue
			}
			seen[next] = true
			out = append(out, next)
			queue = append(queue, next)
		}
	}
	sort.Strings(out)
	return out
}

// ImpactSet is the set of entities whose KPIs a software change may
// influence, split into treated and control groups (§3.1, §3.2.4).
type ImpactSet struct {
	// ChangedService is the service the change was deployed on.
	ChangedService string
	// TServers are the servers the change was deployed on.
	TServers []string
	// CServers are the same-service servers without the change — the
	// control group of servers; empty under Full Launching.
	CServers []string
	// TInstances are the changed service's instances on TServers.
	TInstances []string
	// CInstances are the changed service's instances on the remaining
	// servers; empty under Full Launching.
	CInstances []string
	// AffectedServices are the transitively related services; only
	// their service-level aggregate KPIs join the impact set (§3.1).
	AffectedServices []string
}

// Dark reports whether the change was rolled out with Dark Launching,
// i.e. a concurrent control group exists.
func (s *ImpactSet) Dark() bool { return len(s.CInstances) > 0 || len(s.CServers) > 0 }

// IdentifyImpactSet computes the impact set for a change of the given
// service deployed on tservers. Servers in tservers that do not host
// the service are rejected.
func (t *Topology) IdentifyImpactSet(service string, tservers []string) (*ImpactSet, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.services[service] {
		return nil, fmt.Errorf("topo: unknown service %q", service)
	}
	hosting := make(map[string]bool)
	for _, srv := range t.serversOf(service) {
		hosting[srv] = true
	}
	treated := make(map[string]bool)
	for _, srv := range tservers {
		if !hosting[srv] {
			return nil, fmt.Errorf("topo: server %q does not host service %q", srv, service)
		}
		treated[srv] = true
	}
	set := &ImpactSet{ChangedService: service, AffectedServices: t.affectedServices(service)}
	for srv := range hosting {
		id := InstanceID(service, srv)
		if treated[srv] {
			set.TServers = append(set.TServers, srv)
			set.TInstances = append(set.TInstances, id)
		} else {
			set.CServers = append(set.CServers, srv)
			set.CInstances = append(set.CInstances, id)
		}
	}
	sort.Strings(set.TServers)
	sort.Strings(set.CServers)
	sort.Strings(set.TInstances)
	sort.Strings(set.CInstances)
	return set, nil
}

// TreatedKPIs enumerates the KPI keys FUNNEL must investigate for this
// impact set (step 1 of Fig. 3): the given server metrics on each
// tserver, the given instance metrics on each tinstance, the changed
// service's aggregate for each instance metric, and each affected
// service's aggregate.
func (s *ImpactSet) TreatedKPIs(serverMetrics, instanceMetrics []string) []KPIKey {
	var keys []KPIKey
	for _, srv := range s.TServers {
		for _, m := range serverMetrics {
			keys = append(keys, KPIKey{ScopeServer, srv, m})
		}
	}
	for _, in := range s.TInstances {
		for _, m := range instanceMetrics {
			keys = append(keys, KPIKey{ScopeInstance, in, m})
		}
	}
	for _, m := range instanceMetrics {
		keys = append(keys, KPIKey{ScopeService, s.ChangedService, m})
	}
	for _, svc := range s.AffectedServices {
		for _, m := range instanceMetrics {
			keys = append(keys, KPIKey{ScopeService, svc, m})
		}
	}
	return keys
}

// ControlKPIs enumerates the control-group KPI keys matching a treated
// key: the same metric on every cserver (for server scope) or cinstance
// (for instance scope). Service-scope KPIs have no concurrent control
// (§3.2.5) and yield nil.
func (s *ImpactSet) ControlKPIs(treated KPIKey) []KPIKey {
	var keys []KPIKey
	switch treated.Scope {
	case ScopeServer:
		for _, srv := range s.CServers {
			keys = append(keys, KPIKey{ScopeServer, srv, treated.Metric})
		}
	case ScopeInstance:
		for _, in := range s.CInstances {
			keys = append(keys, KPIKey{ScopeInstance, in, treated.Metric})
		}
	}
	return keys
}
