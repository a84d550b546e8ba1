package histstore

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/store"
	"cloudgraph/internal/store/storetest"
)

// v1Frame is encodeRecord with the graph bytes in the v1 layout, the frame
// versions before the v2 codec wrote.
func v1Frame(dst []byte, epoch uint64, g *graph.Graph) []byte {
	frame := encodeRecord(nil, epoch, epoch, g)
	body := append(frame[frameHeadSize:frameHeadSize+recPrefixSize], storetest.EncodeV1(g)...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, checksum(body))
	return append(dst, body...)
}

// graphVersions returns the first graph byte of every record in dir's
// segment files, in file and then record order: a v1 record's facet or a
// v2 record's version byte.
func graphVersions(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, path := range paths {
		res, err := scanSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.entries {
			body := raw[e.offset+frameHeadSize:]
			out = append(out, body[recPrefixSize])
		}
	}
	return out
}

// get reads epochs through Get, as canonical graph bytes.
func get(t *testing.T, s *Store, epochs ...uint64) [][]byte {
	t.Helper()
	out := make([][]byte, len(epochs))
	for i, ep := range epochs {
		g, err := s.Get(ep)
		if err != nil {
			t.Fatalf("Get(%d): %v", ep, err)
		}
		out[i] = store.EncodeGraph(g)
	}
	return out
}

// replay reads every window record through Replay, as canonical graph
// bytes by epoch.
func replay(t *testing.T, s *Store) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	if err := s.Replay(func(ep uint64, g *graph.Graph) error {
		out[ep] = store.EncodeGraph(g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkWindows fails unless Get and Replay both return wins as epochs
// 1..len(wins).
func checkWindows(t *testing.T, s *Store, wins []*graph.Graph) {
	t.Helper()
	replayed := replay(t, s)
	for i, g := range wins {
		ep := uint64(i + 1)
		want := store.EncodeGraph(g)
		if !bytes.Equal(get(t, s, ep)[0], want) {
			t.Fatalf("Get(%d) differs from the window written", ep)
		}
		if !bytes.Equal(replayed[ep], want) {
			t.Fatalf("Replay differs from the window written at epoch %d", ep)
		}
	}
}

// TestMigrateV1History: a data directory an older version wrote — an
// unsealed window segment of v1 records, with v2 records between them as
// in a segment holding both — opens, and Get and Replay return the windows
// that were written. New windows append as v2; Compact folds the old ones
// into roll-ups written as v2, leaving no v1 record; and a second reopen
// returns the same history.
func TestMigrateV1History(t *testing.T) {
	_, wins := clusterWindows(t)
	dir := t.TempDir()
	old := len(wins) / 2
	raw := segHeader(kindWindow)
	for i, g := range wins[:old] {
		ep := uint64(i + 1)
		if i%4 == 3 {
			raw = encodeRecord(raw, ep, ep, g)
		} else {
			raw = v1Frame(raw, ep, g)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v2 := store.EncodeGraph(graph.New(graph.FacetIP))[0]
	if vs := graphVersions(t, dir); bytes.Count(vs, []byte{v2}) != old/4 {
		t.Fatalf("fixture record versions %x, want every fourth v2", vs)
	}
	opts := Options{SegmentWindows: 6, Retention: 30 * time.Minute, NoSync: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	checkWindows(t, s, wins[:old])

	for i, g := range wins[old:] {
		if err := s.Append(uint64(old+i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	last := uint64(len(wins) + 1)
	sentinel := win(3*time.Hour, 1)
	if err := s.Append(last, sentinel); err != nil {
		t.Fatal(err)
	}
	checkWindows(t, s, wins)

	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rollups == 0 || st.RecordsIn < len(wins) {
		t.Fatalf("compaction left windows behind: %+v", st)
	}
	for _, v := range graphVersions(t, dir) {
		if v != v2 {
			t.Fatalf("after compaction a record starts with %#x, want every record v2 (%#x)", v, v2)
		}
	}
	compacted := get(t, s, 1, last)
	if !bytes.Equal(compacted[0], store.EncodeGraph(foldHour(t, wins))) {
		t.Fatal("the compacted epochs do not read back as the hour roll-up of the windows written")
	}
	if !bytes.Equal(compacted[1], store.EncodeGraph(sentinel)) {
		t.Fatal("the window after the horizon changed")
	}
	replayed := replay(t, s)
	if len(replayed) != 1 || !bytes.Equal(replayed[last], compacted[1]) {
		t.Fatalf("Replay after compaction returned %d windows, want only epoch %d", len(replayed), last)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if again := get(t, s, 1, last); !slices.EqualFunc(again, compacted, bytes.Equal) {
		t.Fatal("Get changed across the second reopen")
	}
	if again := replay(t, s); !maps.EqualFunc(again, replayed, bytes.Equal) {
		t.Fatal("Replay changed across the second reopen")
	}
}
