package analytics

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/heatmap"
	"cloudgraph/internal/realm"
)

// GraphzHandler serves a tenant's latest timeline window as an adjacency
// heatmap — the ops-endpoint rendering of Figure 4. ?tenant= picks the
// tenant (default tenant when absent; an unknown or invalid name is a 404
// and is never admitted). The default is ASCII art sized by ?size= (at most
// size characters wide, default 64); ?format=pgm returns a binary PGM image
// instead, one pixel per node pair.
func GraphzHandler(m *realm.Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := opsTenant(w, m, req)
		if r == nil {
			return
		}
		g, err := latestWindow(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		adj := g.AdjacencyMatrix(graph.Bytes)
		if req.URL.Query().Get("format") == "pgm" {
			w.Header().Set("Content-Type", "image/x-portable-graymap")
			if _, err := w.Write(heatmap.PGM(adj.M, adj.N)); err != nil {
				return
			}
			return
		}
		size := 64
		if v := req.URL.Query().Get("size"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 512 {
				http.Error(w, "size must be 1..512", http.StatusBadRequest)
				return
			}
			size = n
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		header := fmt.Sprintf("window [%s, %s) — %d nodes, %d edges (bytes, log scale)\n",
			g.Start.UTC().Format("2006-01-02T15:04:05Z"),
			g.End.UTC().Format("2006-01-02T15:04:05Z"),
			g.NumNodes(), g.NumEdges())
		if _, err := w.Write([]byte(header + heatmap.ASCII(adj.M, adj.N, size))); err != nil {
			return
		}
	})
}

// latestWindow returns a tenant's newest timeline window, an error
// before the first window.
func latestWindow(r *realm.Realm) (*graph.Graph, error) {
	g := r.Plane().Timeline().Latest()
	if g == nil {
		return nil, errors.New("no completed window (FLUSH first?)")
	}
	return g, nil
}

// AnalyzHandler serves a tenant's analysis plane on the ops endpoint (see
// runner.Plane.AnalyzHandler). ?tenant= picks the tenant as on /graphz: the
// default tenant when absent; an unknown or invalid name is a 404 and is
// never admitted.
func AnalyzHandler(m *realm.Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := opsTenant(w, m, req)
		if r == nil {
			return
		}
		r.Plane().AnalyzHandler().ServeHTTP(w, req)
	})
}

// opsTenant resolves an ops view's ?tenant= through Manager.Get, which
// never admits one: the default tenant when absent, else the admitted
// tenant of that name. An unknown or invalid name answers 404 and nil.
func opsTenant(w http.ResponseWriter, m *realm.Manager, req *http.Request) *realm.Realm {
	name := req.URL.Query().Get("tenant")
	if name == "" {
		name = realm.DefaultTenant
	}
	r := m.Get(name)
	if r == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
	}
	return r
}
