package telemetry

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestOpsServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_test_total", "a counter").Add(42)
	o, err := ServeOps("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	base := "http://" + o.Addr()

	code, body := get(t, base+"/healthz")
	if code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"ops_test_total 42",
		"cloudgraph_process_uptime_seconds",
		"cloudgraph_process_goroutines",
		"cloudgraph_process_heap_alloc_bytes",
		"cloudgraph_process_gc_pause_seconds_total",
		"cloudgraph_process_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every process-metric sample must be a finite number — the GC pause
	// total is summed from a runtime histogram whose edge buckets are
	// unbounded, and an Inf/NaN would poison scrapes silently.
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "cloudgraph_process_") {
			continue
		}
		fields := strings.Fields(line)
		val, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil || math.IsNaN(val) || math.IsInf(val, 0) {
			t.Errorf("non-finite process metric sample: %q", line)
		}
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (goroutine profile missing)", code)
	}

	// Extra views attach while the server runs.
	o.HandleView("/extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if _, err := io.WriteString(w, "extra-view"); err != nil {
			return
		}
	}))
	code, body = get(t, base+"/extra")
	if code != 200 || body != "extra-view" {
		t.Errorf("/extra = %d %q", code, body)
	}
}

// TestViewMethodContract walks every view registered on the ops server —
// built-ins plus HandleView attachments, mirroring how cloudgraphd wires
// its statusz/tracez/flightz/analyz/graphz views — and asserts the shared
// read-only contract: GET answers, everything else is 405 with an Allow
// header.
func TestViewMethodContract(t *testing.T) {
	o, err := ServeOps("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	for _, pattern := range []string{"/statusz", "/tracez", "/flightz", "/analyz", "/graphz"} {
		o.HandleView(pattern, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if _, err := io.WriteString(w, "view"); err != nil {
				return
			}
		}))
	}

	views := o.Views()
	if len(views) != 7 { // /metrics, /healthz + the five above
		t.Fatalf("Views() = %v, want 7 entries", views)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + o.Addr()
	for _, pattern := range views {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			req, err := http.NewRequest(method, base+pattern, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, pattern, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, pattern, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", method, pattern, allow)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			req, err := http.NewRequest(method, base+pattern, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, pattern, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s = %d, want 200", method, pattern, resp.StatusCode)
			}
		}
	}
}

func TestBuildInfo(t *testing.T) {
	reg := NewRegistry()
	BuildInfo(reg, Label{Key: "shards", Value: "8"})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{"cloudgraph_build_info{", `go_version="go`, `shards="8"`, "} 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	BuildInfo(nil) // nil registry must not panic
}

func TestOpsServerClose(t *testing.T) {
	o, err := ServeOps("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := o.Addr()
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client := http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("closed ops server still answering")
	}
}
