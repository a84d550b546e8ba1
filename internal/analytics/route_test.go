package analytics

import (
	"bufio"
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/trace"
)

// TestTaggedNameChurnBounded: a peer that tags every frame with a fresh
// tenant name past the tenant cap gets ERR per batch and keeps its
// connection, and the connection's tenant table holds only admitted
// tenants — churned names that admission rejects are never kept.
func TestTaggedNameChurnBounded(t *testing.T) {
	const maxTenants, batches, perBatch = 2, 40, 4096
	s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, MaxTenants: maxTenants}, Options{})
	recs := make([]flowlog.Record, perBatch)
	for i := range recs {
		recs[i] = wireTestRecord(i % 1000)
	}
	churn := func(b int) []string {
		tags := make([]string, perBatch)
		for i := range tags {
			tags[i] = fmt.Sprintf("churn-%d-%d", b, i)
		}
		return tags
	}

	// Over a real connection: every batch answers ERR and STATS still
	// answers afterwards on the same connection.
	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for b := 0; b < batches; b++ {
		err := client.IngestTagged(recs, nil, churn(b))
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("batch %d: err = %v, want a tenant-cap rejection", b, err)
		}
	}
	if _, err := client.Stats(); err != nil {
		t.Fatalf("STATS after churn: %v", err)
	}

	// The same batches through the connection's INGEST handler, where the
	// table is visible: it never outgrows the cap plus the session tenant.
	sc := new(connScratch)
	ses := &session{Realm: m.Default()}
	for b := 0; b < batches; b++ {
		var buf []byte
		for i, tag := range churn(b) {
			buf = appendTaggedFrame(buf, recs[i], trace.Context{}, tag)
		}
		r := bufio.NewReaderSize(bytes.NewReader(buf), 256<<10)
		if _, err := s.cmdIngest([]string{"INGEST", fmt.Sprint(perBatch), "T"}, r, sc, ses); err == nil {
			t.Fatalf("batch %d: accepted past the tenant cap", b)
		}
		if len(sc.tenants) > maxTenants+1 {
			t.Fatalf("batch %d: connection table holds %d tenants, cap %d", b, len(sc.tenants), maxTenants)
		}
	}
	for _, r := range m.Realms() {
		if got := r.Cost().Records; got != 0 {
			t.Errorf("tenant %s metered %d records from rejected batches", r.Name(), got)
		}
	}
}

// TestTaggedBatchAllOrNothing: a mixed batch whose last run names a tenant
// over the cap answers ERR without landing any record of its earlier
// runs, and the connection's next INGEST succeeds.
func TestTaggedBatchAllOrNothing(t *testing.T) {
	s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, MaxTenants: 3}, Options{})
	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	recs := make([]flowlog.Record, 12)
	for i := range recs {
		recs[i] = wireTestRecord(i)
	}
	// Admit alpha and bravo with some records so unchanged counts mean
	// something.
	if err := client.IngestTagged(recs[:4], nil, []string{"alpha", "bravo", "", "alpha"}); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]int64)
	for _, r := range m.Realms() {
		before[r.Name()] = r.Cost().Records
	}
	tags := []string{"alpha", "alpha", "", "bravo", "bravo", "alpha", "", "", "bravo", "zulu", "zulu", "zulu"}
	if err := client.IngestTagged(recs, nil, tags); err == nil || !strings.Contains(err.Error(), "zulu") {
		t.Fatalf("batch naming a tenant over the cap: err = %v, want zulu rejected", err)
	}
	for _, r := range m.Realms() {
		if got := r.Cost().Records; got != before[r.Name()] {
			t.Errorf("tenant %s: %d records after the rejected batch, want %d", r.Name(), got, before[r.Name()])
		}
	}
	if m.Get("zulu") != nil {
		t.Error("zulu admitted past the cap")
	}
	if err := client.IngestTagged(recs[:9], nil, tags[:9]); err != nil {
		t.Fatalf("INGEST after the rejected batch: %v", err)
	}
	if got, want := m.Get("bravo").Cost().Records, before["bravo"]+3; got != want {
		t.Errorf("bravo metered %d records, want %d", got, want)
	}
}

// TestTaggedRoutingOrders sends TestTenantIsolationEquivalence's
// three-tenant workload in orders that take every routing path: whole
// tenant stretches (no copy), a tenant switch every frame (the counting
// sort), and the session tenant's frames split between untagged and
// tagged with its own name — both tenant-sorted and chronologically
// merged. Every order must give per-tenant QUERY answers byte-identical
// to each tenant running alone.
func TestTaggedRoutingOrders(t *testing.T) {
	window := 15 * time.Minute
	tenants := []string{"alpha", "bravo", "charlie"}
	streams := map[string][]flowlog.Record{
		"alpha":   hourOf(t, tenantCluster(t, 3, 3, 2), t0),
		"bravo":   hourOf(t, tenantCluster(t, 7, 2, 3), t0),
		"charlie": hourOf(t, tenantCluster(t, 11, 4, 1), t0),
	}
	solo, analyses, epochs := soloAnswers(t, window, tenants, streams)

	// charlie is the session tenant throughout; split tags every other
	// charlie frame with its own name.
	sessionTags := func(tags []string, split bool) []string {
		out := make([]string, len(tags))
		n := 0
		for i, tag := range tags {
			if tag == "charlie" {
				if !split || n%2 == 0 {
					tag = ""
				}
				n++
			}
			out[i] = tag
		}
		return out
	}
	var sortedRecs []flowlog.Record
	var sortedTags []string
	for _, name := range tenants {
		sortedRecs = append(sortedRecs, streams[name]...)
		for range streams[name] {
			sortedTags = append(sortedTags, name)
		}
	}
	var altRecs []flowlog.Record
	var altTags []string
	for i := 0; len(altRecs) < len(sortedRecs); i++ {
		for _, name := range tenants {
			if i < len(streams[name]) {
				altRecs = append(altRecs, streams[name][i])
				altTags = append(altTags, name)
			}
		}
	}
	merged, mergedTags := mergeStreams(tenants, streams)
	orders := []struct {
		name string
		recs []flowlog.Record
		tags []string
	}{
		{"sorted", sortedRecs, sessionTags(sortedTags, false)},
		{"alternating", altRecs, sessionTags(altTags, false)},
		{"session-split-sorted", sortedRecs, sessionTags(sortedTags, true)},
		{"session-split-merged", merged, sessionTags(mergedTags, true)},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			srv, m := realmServer(t, window)
			client, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := client.Tenant("charlie"); err != nil {
				t.Fatal(err)
			}
			const batch = 512
			for i := 0; i < len(o.recs); i += batch {
				end := min(i+batch, len(o.recs))
				if err := client.IngestTagged(o.recs[i:end], nil, o.tags[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range tenants {
				if got := m.Get(name).Cost().Records; got != int64(len(streams[name])) {
					t.Errorf("tenant %s metered %d records, want %d", name, got, len(streams[name]))
				}
			}
			if got := m.Default().Cost().Records; got != 0 {
				t.Errorf("default tenant metered %d records, want 0", got)
			}
			for _, name := range tenants {
				if err := client.Tenant(name); err != nil {
					t.Fatal(err)
				}
				if _, err := client.Flush(); err != nil {
					t.Fatalf("tenant %s flush: %v", name, err)
				}
				for _, a := range analyses {
					for ep := uint64(1); ep <= epochs; ep++ {
						res, err := client.Query(a, ep)
						if err != nil {
							t.Fatalf("tenant %s QUERY %s %d: %v", name, a, ep, err)
						}
						if got, want := string(res.Result), solo[name][a][ep-1]; got != want {
							t.Errorf("tenant %s %s epoch %d diverges from solo run:\n  routed: %s\n  solo:   %s",
								name, a, ep, got, want)
						}
					}
				}
			}
		})
	}
}

// soloAnswers runs each tenant's stream alone on the default tenant of
// its own live server and returns every analysis's QUERY answer at every
// epoch (tenant -> analysis -> answer per epoch), with the analyses and
// the epoch count all tenants share.
func soloAnswers(t *testing.T, window time.Duration, tenants []string, streams map[string][]flowlog.Record) (map[string]map[string][]string, []string, uint64) {
	t.Helper()
	solo := make(map[string]map[string][]string)
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
		if newest == 0 || (epochs != 0 && newest != epochs) {
			t.Fatalf("tenant %s: solo epochs %d, others %d", name, newest, epochs)
		}
		epochs = newest
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
	return solo, analyses, epochs
}

// taggedBatch encodes n flagged frames over four tenants, switching
// tenant every run frames, with records that all fall in one hour window.
func taggedBatch(n, run int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = appendTaggedFrame(buf, routeTestRecord(i), trace.Context{}, fmt.Sprintf("t%d", i/run%4))
	}
	return buf
}

// routeTestRecord is record i of a batch of distinct flows inside the
// hour starting at t0.
func routeTestRecord(i int) flowlog.Record {
	return flowlog.Record{
		Time:        t0.Add(time.Duration(i%3000) * time.Second),
		LocalIP:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		LocalPort:   443,
		RemoteIP:    netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
		RemotePort:  uint16(40000 + i%20000),
		PacketsSent: 12,
		PacketsRcvd: 8,
		BytesSent:   4096,
		BytesRcvd:   512,
	}
}

// TestTaggedIngestZeroAlloc pins the tagged hot path's allocation claim:
// once a connection has seen its tenants, decoding a 4096-frame batch and
// routing it to four realms allocates nothing — whether each tenant comes
// as one stretch (sub-slices of the borrowed batch) or the tenant changes
// every frame (the counting sort into the connection's reused buffer).
func TestTaggedIngestZeroAlloc(t *testing.T) {
	s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour, Shards: 1}}, Options{})
	ses := &session{Realm: m.Default()}
	for _, run := range []int{1024, 1} {
		data := taggedBatch(4096, run)
		src := bytes.NewReader(data)
		r := bufio.NewReaderSize(src, 256<<10)
		sc := new(connScratch)
		ingest := func() {
			src.Reset(data)
			r.Reset(src)
			batch, tcs, runs, err := readBatchFlagged(r, 4096, sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ingestTagged(ses, sc, batch, tcs, runs); err != nil {
				t.Fatal(err)
			}
		}
		ingest() // first sight: admission, table entries, buffers
		if avg := testing.AllocsPerRun(20, ingest); avg != 0 {
			t.Errorf("run length %d: %.1f allocs per 4096-frame batch, want 0", run, avg)
		}
	}
}

// BenchmarkIngestTagged drives 4096-frame tagged batches over four
// tenants through a client on loopback, switching tenant every run
// frames: run=1 and run=4 take the counting sort, run=1024 the
// zero-copy stretches. ns/rec includes the client's encode.
func BenchmarkIngestTagged(b *testing.B) {
	const n = 4096
	recs := make([]flowlog.Record, n)
	for i := range recs {
		recs[i] = routeTestRecord(i)
	}
	for _, run := range []int{1, 4, 1024} {
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			s, _ := serve(b, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
			client, err := Dial(s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			tags := make([]string, n)
			for i := range tags {
				tags[i] = fmt.Sprintf("t%d", i/run%4)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.IngestTagged(recs, nil, tags); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
