package analytics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/runner"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

func testServer(t *testing.T) *Server {
	t.Helper()
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
	return s
}

// serve starts a server over a fresh realm manager built from cfg; both
// close at cleanup. Single-tenant tests use the manager's default tenant.
func serve(t testing.TB, cfg realm.Config, opts Options) (*Server, *realm.Manager) {
	t.Helper()
	m, err := realm.NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	s, err := Serve("127.0.0.1:0", m, opts)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return s, m
}

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Spec{
		Name: "svc-test", Seed: 9,
		Roles: []cluster.RoleSpec{
			{Name: "fe", Count: 3, Port: 443},
			{Name: "be", Count: 2, Port: 9000},
		},
		Links: []cluster.LinkSpec{
			{Src: "fe", Dst: "be", FlowsPerMin: 20, Fanout: -1, FwdBytes: 1000, RevBytes: 2000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func hourOf(t *testing.T, c *cluster.Cluster, start time.Time) []flowlog.Record {
	t.Helper()
	var recs []flowlog.Record
	_, err := c.Run(start, 60, collectorFunc(func(b []flowlog.Record) error {
		recs = append(recs, b...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

type collectorFunc func([]flowlog.Record) error

func (f collectorFunc) Collect(r []flowlog.Record) error { return f(r) }

// queryInto answers QUERY name at epoch (0 = latest) and decodes its
// result into out.
func queryInto(t *testing.T, c *Client, name string, epoch uint64, out any) QueryResult {
	t.Helper()
	res, err := c.Query(name, epoch)
	if err != nil {
		t.Fatalf("QUERY %s %d: %v", name, epoch, err)
	}
	if err := json.Unmarshal(res.Result, out); err != nil {
		t.Fatalf("QUERY %s %d: result %s: %v", name, epoch, res.Result, err)
	}
	return res
}

func TestServerEndToEnd(t *testing.T) {
	s := testServer(t)
	c := testCluster(t)

	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	recs := hourOf(t, c, t0)
	if err := client.Ingest(recs); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	n, err := client.Flush()
	if err != nil || n != 1 {
		t.Fatalf("Flush = %d, %v; want 1 window", n, err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Records != int64(len(recs)) || stats.Windows != 1 {
		t.Errorf("stats = %+v", stats)
	}

	var sum runner.SummarizeResult
	if res := queryInto(t, client, "summarize", 0, &sum); res.Epoch != 1 {
		t.Errorf("QUERY summarize latest answered epoch %d, want 1", res.Epoch)
	}
	if sum.Nodes != 5 || sum.Edges == 0 || sum.Headline == "" {
		t.Errorf("summarize = %+v", sum)
	}

	var seg runner.SegmentResult
	queryInto(t, client, "segment", 1, &seg)
	members := 0
	for _, s := range seg.Segments {
		members += len(s)
	}
	if seg.NumSegments < 2 || members != 5 {
		t.Errorf("segment = %+v", seg)
	}

	// The policy runner learns its baseline on the first window, which
	// therefore checks clean against itself.
	var pol runner.PolicyChurnResult
	queryInto(t, client, "policy", 1, &pol)
	if !pol.Baseline || pol.Segments != seg.NumSegments || pol.Moved != 0 {
		t.Errorf("policy = %+v", pol)
	}
}

func TestServerErrorsAndUnknownCommand(t *testing.T) {
	s := testServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	fmt.Fprintf(conn, "BOGUS\n")
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Errorf("unknown command response = %q", line)
	}
	fmt.Fprintf(conn, "QUERY segment latest\n")
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Errorf("QUERY without windows = %q", line)
	}
	fmt.Fprintf(conn, "INGEST nope\n")
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Errorf("bad INGEST count = %q", line)
	}
	// Server should still respond after errors.
	fmt.Fprintf(conn, "STATS\n")
	line, _ = r.ReadString('\n')
	if !strings.Contains(line, "\"records\"") {
		t.Errorf("STATS after errors = %q", line)
	}
	fmt.Fprintf(conn, "QUIT\n")
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "OK") {
		t.Errorf("QUIT = %q", line)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s := testServer(t)
	c := testCluster(t)
	recs := hourOf(t, c, t0)
	half := len(recs) / 2

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		part := recs[:half]
		if i == 1 {
			part = recs[half:]
		}
		go func(batch []flowlog.Record) {
			client, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			errs <- client.Ingest(batch)
		}(part)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	client, _ := Dial(s.Addr())
	defer client.Close()
	if _, err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != int64(len(recs)) {
		t.Errorf("records = %d, want %d", stats.Records, len(recs))
	}
}

func TestServerIngestCorruptFrameKeepsProtocol(t *testing.T) {
	// Regression: a mid-batch decode error used to return without
	// consuming the remaining frames, so the leftover binary bytes were
	// parsed as commands and the connection was poisoned.
	s := testServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	valid := flowlog.Record{
		Time: t0, LocalIP: netip.MustParseAddr("10.0.0.1"), LocalPort: 30000,
		RemoteIP: netip.MustParseAddr("10.0.0.2"), RemotePort: 443,
		PacketsSent: 1, BytesSent: 100,
	}
	frame := flowlog.AppendBinary(nil, valid)
	corrupt := make([]byte, flowlog.WireSize) // all-zero: unspecified addresses

	fmt.Fprintf(conn, "INGEST 3\n")
	conn.Write(frame)
	conn.Write(corrupt)
	conn.Write(frame)
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Fatalf("corrupt batch response = %q, want ERR", line)
	}
	// The stream must be command-aligned again: a valid command right
	// after the failed batch gets its normal response.
	fmt.Fprintf(conn, "STATS\n")
	line, _ = r.ReadString('\n')
	if !strings.Contains(line, "\"records\"") {
		t.Fatalf("STATS after corrupt batch = %q, want JSON stats", line)
	}
	// And a clean batch on the same connection still ingests.
	fmt.Fprintf(conn, "INGEST 1\n")
	conn.Write(frame)
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "OK 1") {
		t.Fatalf("INGEST after corrupt batch = %q, want OK 1", line)
	}
}

func testRecords(client, flows int) []flowlog.Record {
	recs := make([]flowlog.Record, 0, flows)
	for i := 0; i < flows; i++ {
		recs = append(recs, flowlog.Record{
			Time:      t0.Add(time.Duration(i%60) * time.Minute),
			LocalIP:   netip.AddrFrom4([4]byte{10, 0, byte(client + 1), byte(i%250 + 1)}),
			LocalPort: uint16(30000 + i), RemoteIP: netip.AddrFrom4([4]byte{10, 0, 99, byte(client + 1)}),
			RemotePort:  443,
			PacketsSent: 1, BytesSent: uint64(100 + i), PacketsRcvd: 1, BytesRcvd: 50,
		})
	}
	return recs
}

func TestServerConcurrentMixedCommands(t *testing.T) {
	// Several clients hammer one sharded server with the full command mix
	// concurrently (run with -race): every response must stay coherent
	// and no records may be lost.
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour, Shards: 4}}, Options{})

	const clients = 6
	const flows = 200
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			errs <- func() error {
				c, err := Dial(s.Addr())
				if err != nil {
					return err
				}
				defer c.Close()
				recs := testRecords(cl, flows)
				for i := 0; i < len(recs); i += 32 {
					end := i + 32
					if end > len(recs) {
						end = len(recs)
					}
					if err := c.Ingest(recs[i:end]); err != nil {
						return err
					}
					if _, err := c.Stats(); err != nil {
						return err
					}
				}
				if _, err := c.Flush(); err != nil {
					return err
				}
				// QUERYs race against other clients' window churn;
				// protocol-level errors (e.g. no window analysed yet) are
				// fine, transport desync is not.
				for _, name := range []string{"segment", "summarize", "policy"} {
					if _, err := c.Query(name, 0); err != nil && !strings.Contains(err.Error(), "analytics:") {
						return err
					}
				}
				return nil
			}()
		}(cl)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != int64(clients*flows) {
		t.Errorf("records = %d, want %d", stats.Records, clients*flows)
	}
	if stats.Workers != 4 || len(stats.Shards) != 4 {
		t.Errorf("stats workers = %d, shards = %d, want 4", stats.Workers, len(stats.Shards))
	}
	var perShard int64
	for _, sh := range stats.Shards {
		perShard += sh.Records
	}
	if perShard != stats.Records {
		t.Errorf("per-shard records sum to %d, meter says %d", perShard, stats.Records)
	}
}

func TestClientDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port should fail")
	}
}

// TestServerSummaryAndAnomalies: the summary and the hour-over-hour drift
// score are QUERY summarize's, one answer per epoch.
func TestServerSummaryAndAnomalies(t *testing.T) {
	s := testServer(t)
	c := testCluster(t)
	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query("summarize", 0); err == nil {
		t.Error("QUERY summarize without windows should error")
	}
	for h := 0; h < 2; h++ {
		if err := client.Ingest(hourOf(t, c, t0.Add(time.Duration(h)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	var sum runner.SummarizeResult
	if res := queryInto(t, client, "summarize", 0, &sum); res.Epoch != 2 {
		t.Fatalf("QUERY summarize latest answered epoch %d, want 2", res.Epoch)
	}
	if sum.Headline == "" || sum.Hubs+sum.Cliques == 0 {
		t.Errorf("summary = %+v", sum)
	}
	var first runner.SummarizeResult
	queryInto(t, client, "summarize", 1, &first)
	if first.Score.Drift != 0 {
		t.Errorf("first window drift = %v, want 0", first.Score.Drift)
	}
	if sum.Score.Index != 1 || sum.Score.Drift <= 0 {
		t.Errorf("second window score = %+v, want some drift", sum.Score)
	}
}
