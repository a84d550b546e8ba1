package analytics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/runner"
)

// presetWindows returns the first `minutes` one-minute windows of a preset
// cluster at scale 0.25, as a shard windower seals them — the windows the
// runner golden file pins.
func presetWindows(t *testing.T, preset string, minutes int) []*graph.Graph {
	t.Helper()
	spec, err := cluster.Preset(preset, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []*graph.Graph
	w := core.NewWindower(time.Minute, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) { out = append(out, g) }
	if _, err := c.Run(t0, minutes, collectorFunc(func(batch []flowlog.Record) error {
		for _, r := range batch {
			w.Add(r)
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return out
}

// frame renders one response the way the connection loop writes it.
func frame(t *testing.T, out any) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeResponse(w, out, nil); err != nil {
		t.Fatalf("write response: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryFramingMatchesMarshal: a QUERY answer framed from its stored
// result bytes is json.Marshal(QueryResult) plus the newline, byte for
// byte, for every default runner at every epoch of the golden k8spaas and
// microservicebench windows, answered from memory and from disk.
func TestQueryFramingMatchesMarshal(t *testing.T) {
	for _, preset := range []string{"k8spaas", "microservicebench"} {
		windows := presetWindows(t, preset, 10)
		hs, err := histstore.Open(t.TempDir(), histstore.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hs.Close() })
		mem := runner.New(runner.Config{})
		disk := runner.New(runner.Config{History: 1})
		for i, g := range windows {
			epoch := uint64(i + 1)
			if err := hs.Append(epoch, g); err != nil {
				t.Fatal(err)
			}
			mem.Restore(epoch, g)
			disk.Restore(epoch, g)
		}
		disk.SetHistory(hs, nil)
		for src, plane := range map[string]*runner.Plane{"memory": mem, "disk": disk} {
			for _, name := range plane.Runners() {
				for epoch := uint64(1); epoch <= uint64(len(windows)); epoch++ {
					at, res, err := plane.Query(name, epoch)
					if err != nil {
						t.Fatalf("%s %s@%d from %s: %v", preset, name, epoch, src, err)
					}
					q := QueryResult{Analysis: name, Epoch: at, Result: res}
					want, err := json.Marshal(q)
					if err != nil {
						t.Fatal(err)
					}
					if got := frame(t, q); !bytes.Equal(got, append(want, '\n')) {
						t.Fatalf("%s %s@%d from %s: framed\n  %s\nwant\n  %s", preset, name, epoch, src, got, want)
					}
				}
			}
		}
	}
}

// failingRunner is an analysis whose result cannot marshal, with a control
// character in the error text.
type failingRunner struct{}

func (failingRunner) Name() string                    { return "failing" }
func (failingRunner) OnSnapshot(uint64, *graph.Graph) {}
func (failingRunner) Result() any                     { return failingResult{} }

type failingResult struct{}

func (failingResult) MarshalJSON() ([]byte, error) {
	return nil, errors.New("bad byte \x00 in result")
}

// TestQueryAnswersRunnerErrorAsJSON: a result that fails to marshal is
// answered as a valid JSON error document carrying the failure text,
// control character included, not as invalid JSON or a dropped connection.
func TestQueryAnswersRunnerErrorAsJSON(t *testing.T) {
	plane := runner.New(runner.Config{Runners: []runner.Runner{failingRunner{}}})
	plane.Restore(1, graph.New(graph.FacetIP))
	at, res, err := plane.Query("failing", 0)
	if err != nil {
		t.Fatal(err)
	}
	line := frame(t, QueryResult{Analysis: "failing", Epoch: at, Result: res})
	var got QueryResult
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("QUERY answer %q is not JSON: %v", line, err)
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(got.Result, &payload); err != nil || !strings.Contains(payload.Error, "bad byte \x00 in result") {
		t.Fatalf("result %s: error %q (%v), want the marshal failure", got.Result, payload.Error, err)
	}
}
