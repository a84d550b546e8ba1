package realm

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/telemetry"
)

func testRecord(i int, at time.Time) flowlog.Record {
	return flowlog.Record{
		Time:        at,
		LocalIP:     netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(i%250 + 1)}),
		LocalPort:   uint16(3000 + i%16),
		RemoteIP:    netip.AddrFrom4([4]byte{10, 1, 0, byte(i%200 + 1)}),
		RemotePort:  443,
		PacketsSent: uint64(i + 1),
		BytesSent:   uint64(100 * (i + 1)),
	}
}

func TestValidName(t *testing.T) {
	good := []string{"default", "a", "tenant-1", "acme.prod", "x_y", strings.Repeat("a", MaxNameLen)}
	for _, s := range good {
		if !ValidName(s) {
			t.Errorf("ValidName(%q) = false, want true", s)
		}
	}
	bad := []string{"", ".", "..", ".hidden", "-dash", "_u", "UPPER", "a/b", "a b", "a\x00b",
		"diag", strings.Repeat("a", MaxNameLen+1)}
	for _, s := range bad {
		if ValidName(s) {
			t.Errorf("ValidName(%q) = true, want false", s)
		}
	}
}

func TestManagerAdmission(t *testing.T) {
	m, err := NewManager(Config{Engine: core.Config{Window: time.Minute}, MaxTenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Default() == nil {
		t.Fatal("default realm must exist at construction")
	}
	if _, err := m.Realm("Invalid!"); err == nil {
		t.Fatal("invalid name admitted")
	}
	if _, err := m.Realm("diag"); err == nil {
		t.Fatal("reserved name admitted")
	}
	if _, err := m.Realm("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Realm("globex"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Realm("overflow"); err == nil {
		t.Fatal("tenant cap not enforced")
	}
	if r := m.Get("acme"); r == nil || r.Name() != "acme" {
		t.Fatal("Get(acme) failed")
	}
	if m.Get("nonexistent") != nil {
		t.Fatal("Get must not admit")
	}
	names := []string{}
	for _, r := range m.Realms() {
		names = append(names, r.Name())
	}
	want := []string{DefaultTenant, "acme", "globex"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Realms() = %v, want %v", names, want)
	}
}

// TestRealmIngestIsolation: records folded into one tenant's realm are
// invisible to every other tenant's engine, and COGS meters per tenant.
func TestRealmIngestIsolation(t *testing.T) {
	m, err := NewManager(Config{Engine: core.Config{Window: time.Minute}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, _ := m.Realm("acme")
	b, _ := m.Realm("globex")
	t0 := time.Unix(1700000000, 0)
	var batch []flowlog.Record
	for i := 0; i < 100; i++ {
		batch = append(batch, testRecord(i, t0.Add(time.Duration(i)*time.Second)))
	}
	a.IngestTraced(batch, nil)
	// Seal the open minute for tenant a only.
	a.IngestTraced([]flowlog.Record{testRecord(0, t0.Add(5*time.Minute))}, nil)
	a.Engine().Flush()
	b.Engine().Flush()
	if got := a.Engine().Epoch(); got == 0 {
		t.Fatal("tenant a has no windows")
	}
	if got := b.Engine().Epoch(); got != 0 {
		t.Fatalf("tenant b sees %d windows from tenant a", got)
	}
	ca, cb := a.Cost(), b.Cost()
	if ca.Records != 101 || cb.Records != 0 {
		t.Fatalf("COGS records: a=%d b=%d, want 101/0", ca.Records, cb.Records)
	}
	if ca.WireBytes != 101*flowlog.WireSize {
		t.Fatalf("COGS wire bytes = %d", ca.WireBytes)
	}
	if ca.GraphBytes == 0 {
		t.Fatal("COGS graph bytes not recorded after seal")
	}
	if ca.IngestSeconds <= 0 {
		t.Fatal("COGS ingest seconds not recorded")
	}
}

// TestCostGraphBytesIsLatestWindow: a tenant's COGS graph bytes are the
// in-memory size of the latest window its plane holds — 0 before the
// first window seals, that window's MemBytes once Flush has drained it
// into the plane.
func TestCostGraphBytesIsLatestWindow(t *testing.T) {
	m, err := NewManager(Config{Engine: core.Config{Window: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r := m.Default()
	t0 := time.Unix(1700000000, 0)
	var recs []flowlog.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, testRecord(i, t0.Add(time.Duration(i)*time.Second)))
	}
	r.IngestTraced(recs, nil)
	if got := r.Cost().GraphBytes; got != 0 {
		t.Fatalf("graph bytes = %d with no window sealed, want 0", got)
	}
	r.Engine().Flush()
	latest := r.Plane().Timeline().Latest()
	if latest == nil {
		t.Fatal("Flush left the plane without a window")
	}
	if got, want := r.Cost().GraphBytes, latest.MemBytes(); got != want || got == 0 {
		t.Fatalf("graph bytes = %d, want the latest window's %d", got, want)
	}
}

// TestTenantTelemetrySeries: two tenants share one registry, and every
// engine and bus series on it reports the tenant its label names. Only
// the second tenant ingests, so its open-window gauge must equal its own
// engine's open windows while the default tenant's reads 0, and each
// tenant's bus consumer reports its own depth and deliveries.
func TestTenantTelemetrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Engine: core.Config{Window: time.Minute, Shards: 2}, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	def := m.Default()
	b, err := m.Realm("b")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1700000000, 0).Truncate(time.Minute)
	var recs []flowlog.Record
	for i := 0; i < 150; i++ { // three minutes: two seal, the third stays open
		recs = append(recs, testRecord(i, t0.Add(time.Duration(i)*1200*time.Millisecond)))
	}
	b.IngestTraced(recs, nil)
	b.Engine().Bus().Drain()

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]string)
	for _, line := range strings.Split(text.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			series[line[:i]] = line[i+1:]
		}
	}
	expect := func(name, want string) {
		t.Helper()
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %q (present %v), want %q", name, got, ok, want)
		}
	}

	open := 0
	for _, sh := range b.Engine().Cost().Shards {
		open += sh.Depth
	}
	if open == 0 {
		t.Fatal("tenant b has no open window to report")
	}
	expect(`cloudgraph_core_open_windows{tenant="b"}`, strconv.Itoa(open))
	expect(`cloudgraph_core_open_windows{tenant="default"}`, "0")
	expect(`cloudgraph_core_windows_completed_total{tenant="b"}`, strconv.FormatUint(b.Engine().Epoch(), 10))
	expect(`cloudgraph_core_windows_completed_total{tenant="default"}`, "0")
	for _, r := range []*Realm{def, b} {
		stats := r.Engine().Bus().Stats()
		if len(stats) == 0 {
			t.Fatalf("tenant %s has no bus consumer", r.Name())
		}
		for _, st := range stats {
			ls := `{consumer="` + st.Name + `",tenant="` + r.Name() + `"}`
			expect("cloudgraph_core_bus_depth"+ls, strconv.Itoa(st.Depth))
			expect("cloudgraph_core_bus_delivered_total"+ls, strconv.FormatUint(st.Delivered, 10))
			expect("cloudgraph_core_bus_dropped_total"+ls, strconv.FormatUint(st.Dropped, 10))
		}
	}
	if got := b.Engine().Bus().Stats()[0].Delivered; got != 2 {
		t.Errorf("tenant b delivered %d windows to its plane, want 2", got)
	}
	if strings.Contains(text.String(), "cloudgraph_ingest_") {
		t.Error("exposition still carries a cloudgraph_ingest_ family")
	}
}

// TestManagerRecoversTenantDirs: a manager over a data dir containing
// tenant partitions re-admits each tenant and resumes its epochs, and each
// tenant's history metrics, recovery replay included, reach the registry
// under its tenant label.
func TestManagerRecoversTenantDirs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Engine:  core.Config{Window: time.Minute},
		DataDir: dir,
		Hist:    histstore.Options{NoSync: true},
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Realm("acme")
	t0 := time.Unix(1700000000, 0)
	var recs []flowlog.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, testRecord(i, t0.Add(time.Duration(i)*3*time.Second)))
	}
	a.IngestTraced(recs, nil)
	a.IngestTraced([]flowlog.Record{testRecord(0, t0.Add(10*time.Minute))}, nil)
	a.Engine().Flush()
	sealedBefore := a.Watermarks().Snapshot().Sealed
	if sealedBefore == 0 {
		t.Fatal("no epoch sealed before close")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// A non-tenant directory must not become a realm.
	os.MkdirAll(filepath.Join(dir, "diag"), 0o755)

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	r := m2.Get("acme")
	if r == nil {
		t.Fatal("tenant acme not recovered from data dir")
	}
	if m2.Get("diag") != nil {
		t.Fatal("reserved dir recovered as tenant")
	}
	if r.Recovered() == 0 {
		t.Fatal("no windows replayed for recovered tenant")
	}
	if got := r.Watermarks().Snapshot().Sealed; got != sealedBefore {
		t.Fatalf("resumed epoch = %d, want %d", got, sealedBefore)
	}
	if got := r.Engine().Epoch(); got != sealedBefore {
		t.Fatalf("engine StartEpoch = %d, want %d", got, sealedBefore)
	}
	if r.Cost().DiskBytes == 0 {
		t.Fatal("recovered tenant has zero disk bytes")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`cloudgraph_histstore_windows_replayed_total{tenant="acme"} %d`, r.Recovered()),
		`cloudgraph_histstore_recovery_seconds{tenant="acme"}`,
		`cloudgraph_histstore_segments{tenant="default"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTenantGoroutines pins what admitting a tenant costs in goroutines
// with DataDir and CompactEvery: three — the "analysis" and "history" bus
// consumers and the history compactor — and Manager.Close returns every
// one of them.
func TestTenantGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := NewManager(Config{
		Engine:       core.Config{Window: time.Minute},
		DataDir:      t.TempDir(),
		Hist:         histstore.Options{NoSync: true},
		CompactEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := m.Realm("acme"); err != nil {
		m.Close()
		t.Fatal(err)
	}
	if added := runtime.NumGoroutine() - before; added != 3 {
		buf := make([]byte, 1<<20)
		m.Close()
		t.Fatalf("admitting a tenant started %d goroutines, want 3\n%s", added, buf[:runtime.Stack(buf, true)])
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for each goroutine to finish its work; the exits
	// themselves land just after.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > start {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked past Close: %d -> %d\n%s", start, got, buf[:runtime.Stack(buf, true)])
	}
}
