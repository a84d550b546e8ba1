package analytics

import (
	"fmt"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/timeline"
)

// tenantCluster builds a deterministic per-tenant workload; the seed and
// shape differ per tenant so no two tenants' analyses could collide by
// accident.
func tenantCluster(t *testing.T, seed int64, fe, be int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Spec{
		Name: fmt.Sprintf("svc-%d", seed), Seed: seed,
		Roles: []cluster.RoleSpec{
			{Name: "fe", Count: fe, Port: 443},
			{Name: "be", Count: be, Port: 9000},
		},
		Links: []cluster.LinkSpec{
			{Src: "fe", Dst: "be", FlowsPerMin: float64(10 + seed), Fanout: -1, FwdBytes: 1000, RevBytes: 2000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// realmServer starts a realm server with the live plane on. Solo and
// multi-tenant runs both come from here, so the isolation equivalence
// below compares identical per-tenant pipelines.
func realmServer(t *testing.T, window time.Duration) (*Server, *realm.Manager) {
	t.Helper()
	return serve(t, realm.Config{
		Engine:   core.Config{Window: window, Shards: 4},
		Live:     true,
		Timeline: timeline.Config{Rollup: time.Hour},
		// Two slots for four-plus planes: admission is contended, so the
		// scheduler is actually in the loop for every window.
		Workers: 2,
	}, Options{})
}

// TestTenantIsolationEquivalence pins the realm isolation contract at
// the wire level: three tenants interleaved through one multi-tenant
// server — mixed tagged batches, plus one tenant riding the session
// tenant untagged — must produce per-tenant QUERY results byte-identical
// to each tenant running alone on a dedicated one-tenant realm server, for
// every analysis at every epoch.
func TestTenantIsolationEquivalence(t *testing.T) {
	window := 15 * time.Minute
	tenants := []string{"alpha", "bravo", "charlie"}
	streams := map[string][]flowlog.Record{
		"alpha":   hourOf(t, tenantCluster(t, 3, 3, 2), t0),
		"bravo":   hourOf(t, tenantCluster(t, 7, 2, 3), t0),
		"charlie": hourOf(t, tenantCluster(t, 11, 4, 1), t0),
	}

	// Solo baselines: each tenant alone on the default tenant of its own
	// realm server.
	solo := make(map[string]map[string][]string) // tenant -> analysis -> result per epoch
	var analyses []string
	var epochs uint64
	for _, name := range tenants {
		s, plane := liveServer(t, window)
		client, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Ingest(streams[name]); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Flush(); err != nil {
			t.Fatal(err)
		}
		analyses = plane.Runners()
		_, newest := plane.Epochs(analyses[0])
		if newest == 0 {
			t.Fatalf("tenant %s: solo plane saw no windows", name)
		}
		if epochs == 0 {
			epochs = newest
		} else if newest != epochs {
			t.Fatalf("tenant %s: solo epochs %d, others %d", name, newest, epochs)
		}
		solo[name] = make(map[string][]string)
		for _, a := range analyses {
			for ep := uint64(1); ep <= newest; ep++ {
				res, err := client.Query(a, ep)
				if err != nil {
					t.Fatalf("tenant %s solo QUERY %s %d: %v", name, a, ep, err)
				}
				solo[name][a] = append(solo[name][a], string(res.Result))
			}
		}
		client.Close()
		s.Close()
	}

	// The combined run: one server, the three streams merged
	// chronologically. alpha and bravo ride per-frame tags in mixed
	// batches; charlie is the session tenant, so its frames go untagged
	// and resolve through the TENANT binding.
	srv, m := realmServer(t, window)
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Tenant("charlie"); err != nil {
		t.Fatal(err)
	}
	merged, tags := mergeStreams(tenants, streams)
	for i := range tags {
		if tags[i] == "charlie" {
			tags[i] = ""
		}
	}
	const batch = 512
	for i := 0; i < len(merged); i += batch {
		end := min(i+batch, len(merged))
		if err := client.IngestTagged(merged[i:end], nil, tags[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range tenants {
		if err := client.Tenant(name); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Flush(); err != nil {
			t.Fatalf("tenant %s flush: %v", name, err)
		}
	}

	// Per-tenant accounting held: each realm metered exactly its own
	// stream, and the default tenant saw nothing.
	for _, name := range tenants {
		r := m.Get(name)
		if r == nil {
			t.Fatalf("tenant %s not admitted", name)
		}
		if got := r.Cost().Records; got != int64(len(streams[name])) {
			t.Errorf("tenant %s metered %d records, want %d", name, got, len(streams[name]))
		}
	}
	if got := m.Default().Cost().Records; got != 0 {
		t.Errorf("default tenant metered %d records, want 0", got)
	}

	// The pin: every analysis at every epoch, byte-identical to solo.
	for _, name := range tenants {
		if err := client.Tenant(name); err != nil {
			t.Fatal(err)
		}
		for _, a := range analyses {
			for ep := uint64(1); ep <= epochs; ep++ {
				res, err := client.Query(a, ep)
				if err != nil {
					t.Fatalf("tenant %s QUERY %s %d: %v", name, a, ep, err)
				}
				if got, want := string(res.Result), solo[name][a][ep-1]; got != want {
					t.Errorf("tenant %s %s epoch %d diverges from solo run:\n  multi: %s\n  solo:  %s",
						name, a, ep, got, want)
				}
			}
		}
	}
}

// mergeStreams interleaves per-tenant record streams chronologically
// (ties to the earlier tenant in order), returning the merged records
// with a parallel tenant tag slice.
func mergeStreams(order []string, streams map[string][]flowlog.Record) ([]flowlog.Record, []string) {
	total := 0
	for _, name := range order {
		total += len(streams[name])
	}
	merged := make([]flowlog.Record, 0, total)
	tags := make([]string, 0, total)
	idx := make([]int, len(order))
	for {
		best := -1
		for i, name := range order {
			if idx[i] >= len(streams[name]) {
				continue
			}
			if best < 0 || streams[name][idx[i]].Time.Before(streams[order[best]][idx[best]].Time) {
				best = i
			}
		}
		if best < 0 {
			return merged, tags
		}
		merged = append(merged, streams[order[best]][idx[best]])
		tags = append(tags, order[best])
		idx[best]++
	}
}
