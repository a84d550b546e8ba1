package realm

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
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

// TestManagerRecoversTenantDirs: a manager over a data dir containing
// tenant partitions re-admits each tenant and resumes its epochs, and each
// tenant's history metrics, recovery replay included, reach the registry
// under its tenant label.
func TestManagerRecoversTenantDirs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Engine:  core.Config{Window: time.Minute},
		Live:    true,
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
	sealedBefore := a.Watermarks().SealedEpoch()
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
	if got := r.Watermarks().SealedEpoch(); got != sealedBefore {
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
