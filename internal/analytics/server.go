// Package analytics exposes the per-tenant pipelines of internal/realm as
// the software-as-a-service sketched in Figure 8: host agents (or a
// replayer) stream connection summaries to a TCP endpoint, the tenant's
// engine folds them into windowed communication graphs, and administrators
// query segmentations, security reports and summaries over the same
// protocol.
//
// The wire protocol is line-oriented commands with JSON responses. Every
// command acts on the connection's session tenant (TENANT switches it; the
// default tenant otherwise); the right-hand column names what each one
// reads. QUERY is the only analysis read: segmentations, summaries, drift
// scores and policy churn are the plane's runner results, epoch-addressed
// and served from disk once evicted from memory. Without a plane
// (cloudgraphd -live=false) QUERY answers ERR and STATS reports no windows.
//
//	INGEST <n>\n + n binary flowlog frames    -> OK <n>            engine ingest
//	INGEST <n> T\n + n flagged frames         -> OK <n>            per-frame tenant tags (wire.go)
//	FLUSH                                     -> OK <epoch>        seal + drain; engine epoch
//	STATS                                     -> JSON Stats        engine cost; timeline window count
//	QUERY <analysis> [<epoch>|<time>|latest]  -> JSON QueryResult  runner results, then history
//	TENANT <name>                             -> OK <name>         admits + binds the session tenant
//	QUIT                                      -> connection closes
//
// A command line longer than the connection's read buffer answers ERR and
// closes the connection. Tagged frames (wire.go) route records per frame
// regardless of the session tenant. A single-tenant deployment is simply a
// manager whose default tenant carries all the traffic.
package analytics

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// Options tunes the server's per-connection robustness limits.
type Options struct {
	// IdleTimeout closes a connection that sends no complete command (or
	// stalls mid-INGEST-batch) for this long. Zero means 5 minutes.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response to a peer that has stopped
	// reading. Zero means 1 minute.
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = time.Minute
	}
	return o
}

// serverMetrics holds the service-endpoint telemetry handles, preallocated
// at startup (all nil when telemetry is off).
type serverMetrics struct {
	conns     *telemetry.Counter
	active    *telemetry.Gauge
	frames    *telemetry.Counter
	protoErrs *telemetry.Counter
	timeouts  *telemetry.Counter
	// cmds meters each word of wireCommands; unknown meters the rest.
	cmds    map[string]cmdMeter
	unknown cmdMeter
}

// wireCommands is the protocol's fixed command set.
var wireCommands = []string{"INGEST", "FLUSH", "STATS", "QUERY", "TENANT", "QUIT"}

// cmdMeter is one command's count and latency, from its line read to its
// response flushed.
type cmdMeter struct {
	count   *telemetry.Counter
	seconds *telemetry.Histogram
}

// command returns the meter of a command word, inert when telemetry is off.
func (m *serverMetrics) command(cmd string) cmdMeter {
	if c, ok := m.cmds[cmd]; ok {
		return c
	}
	return m.unknown
}

func (m *serverMetrics) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.conns = reg.Counter("cloudgraph_analytics_connections_total",
		"connections accepted by the analytics endpoint")
	m.active = reg.Gauge("cloudgraph_analytics_active_connections",
		"connections currently being served")
	m.frames = reg.Counter("cloudgraph_analytics_frames_decoded_total",
		"binary flowlog frames decoded from INGEST batches")
	m.protoErrs = reg.Counter("cloudgraph_analytics_protocol_errors_total",
		"commands rejected with an ERR response")
	m.timeouts = reg.Counter("cloudgraph_analytics_conn_timeouts_total",
		"connections closed by the idle or write deadline")
	meter := func(name string) cmdMeter {
		label := telemetry.Label{Key: "command", Value: name}
		return cmdMeter{
			count: reg.Counter("cloudgraph_analytics_commands_total",
				"wire commands served, by command word", label),
			seconds: reg.Histogram("cloudgraph_analytics_command_seconds",
				"wire command latency from line read to response flushed", telemetry.DurBuckets, label),
		}
	}
	m.cmds = make(map[string]cmdMeter, len(wireCommands))
	for _, cmd := range wireCommands {
		m.cmds[cmd] = meter(strings.ToLower(cmd))
	}
	m.unknown = meter("unknown")
}

// Server is a running analytics service.
type Server struct {
	realms *realm.Manager
	ln     net.Listener
	opts   Options
	tel    serverMetrics
	wg     sync.WaitGroup

	// mu guards closed and conns. Tracking live connections lets Close
	// tear down stalled peers instead of waiting out their deadlines.
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") over a realm
// manager. The manager owns every engine and plane; Close stops the
// listener and handlers but leaves the manager to its owner. The endpoint
// metrics register in the manager's telemetry registry.
func Serve(addr string, m *realm.Manager, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		realms: m,
		ln:     ln,
		opts:   opts.withDefaults(),
		conns:  make(map[net.Conn]struct{}),
	}
	s.tel.instrument(m.Telemetry())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, force-closes live connections (a stalled peer
// must not pin shutdown until its deadline fires) and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		//lint:allow errdrop force-close at shutdown; the handler observes the error and exits
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//lint:allow errdrop racing accept at shutdown; nothing was written yet
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.tel.conns.Add(1)
		s.tel.active.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.dropConn(conn)
			s.handle(conn)
		}()
	}
}

// dropConn untracks and closes a finished connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.tel.active.Add(-1)
	//lint:allow errdrop teardown close; any read/write error already ended the command loop
	conn.Close()
}

// textResponse marks a handler result as a plain "OK ..." line rather
// than a JSON document.
type textResponse string

// session is one connection's tenant binding: the realm every command on
// this connection reads and writes. The TENANT command rebinds it, and
// per-frame tenant tags override it record by record on the ingest path.
type session struct {
	tenant string
	*realm.Realm
}

// cmdTenant rebinds the connection's session tenant, admitting the realm
// if needed.
func (s *Server) cmdTenant(fields []string, ses *session) (any, error) {
	if len(fields) != 2 {
		return nil, errors.New("usage: TENANT <name>")
	}
	r, err := s.realms.Realm(fields[1])
	if err != nil {
		return nil, err
	}
	*ses = session{tenant: fields[1], Realm: r}
	return textResponse("OK " + fields[1]), nil
}

// handle runs the command loop for one connection. Handlers compute a
// response value; this loop is the only place responses are written, so
// every write and flush error is checked exactly once and tears the
// connection down.
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 256<<10)
	w := bufio.NewWriter(conn)
	sc := new(connScratch)
	ses := &session{tenant: realm.DefaultTenant, Realm: s.realms.Default()}
	for {
		// The read deadline is absolute, so it also bounds the binary
		// batch an INGEST command goes on to read: a peer that stalls
		// mid-batch is cut off just like one that stops sending commands.
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return
		}
		// ReadSlice bounds a command line by r's buffer: a peer streaming
		// bytes with no newline cannot grow it past that.
		line, err := r.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.tel.timeouts.Add(1)
			}
			return
		}
		var fields []string
		var cmd string
		if err == nil {
			if fields = strings.Fields(string(line)); len(fields) == 0 {
				continue
			}
			cmd = strings.ToUpper(fields[0])
		}
		meter := s.tel.command(cmd)
		meter.count.Add(1)
		span := telemetry.StartSpan(meter.seconds)
		var out any
		var cmdErr error
		switch cmd {
		case "": // only a line that outgrew r's buffer leaves cmd empty
			cmdErr = fmt.Errorf("command line too long (over %d bytes): %w", r.Size(), errDesync)
		case "QUIT":
			out = textResponse("OK bye")
		case "INGEST":
			out, cmdErr = s.cmdIngest(fields, r, sc, ses)
		case "FLUSH":
			// Not under a scheduler slot: the bus consumers the flush
			// drains wait on slots themselves.
			ses.Engine().Flush()
			out = textResponse(fmt.Sprintf("OK %d", ses.Engine().Epoch()))
		case "STATS":
			out = stats(ses)
		case "QUERY":
			out, cmdErr = cmdQuery(fields, ses)
		case "TENANT":
			out, cmdErr = s.cmdTenant(fields, ses)
		default:
			cmdErr = fmt.Errorf("unknown command %q", cmd)
		}
		if cmdErr != nil {
			s.tel.protoErrs.Add(1)
			if tr := ses.Engine().Tracer(); tr != nil {
				tr.Eventf(trace.Context{}, "analytics", slog.LevelWarn, "protocol error: %v", cmdErr)
				tr.Trip("analytics", "protocol error: "+cmdErr.Error())
			}
		}
		if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
			return
		}
		werr := writeResponse(w, out, cmdErr)
		if werr == nil {
			werr = w.Flush()
		}
		span.End()
		if werr != nil {
			if errors.Is(werr, os.ErrDeadlineExceeded) {
				s.tel.timeouts.Add(1)
			}
			return
		}
		if cmd == "QUIT" {
			return
		}
		if errors.Is(cmdErr, errDesync) {
			// The ERR line went out, but the byte stream can no longer
			// be re-aligned to command boundaries; drop the connection.
			return
		}
	}
}

// writeResponse emits one response line: an ERR line when the handler
// failed, the text line for textResponse results, a QUERY answer framed
// from its stored bytes, a JSON document otherwise.
func writeResponse(w *bufio.Writer, out any, cmdErr error) error {
	if cmdErr != nil {
		return writeLine(w, "ERR "+cmdErr.Error())
	}
	switch out := out.(type) {
	case textResponse:
		return writeLine(w, string(out))
	case QueryResult:
		return out.writeLine(w)
	}
	return writeJSON(w, out)
}

// connScratch holds one connection's reused INGEST buffers. The engine
// borrows a batch only for the duration of the Ingest call (see
// core.Engine.Ingest), so each command may overwrite the previous one's
// records in place — the whole decode path allocates nothing per batch in
// the steady state.
type connScratch struct {
	batch   []flowlog.Record
	tcs     []trace.Context
	tenants []string
	// names interns wire tenant tags so a steady tagged stream allocates
	// each distinct name once per connection.
	names map[string]string
	// groups are the reused per-tenant regroup buffers for mixed-tenant
	// batches (the slow path; uniform batches ingest the borrowed slice).
	groups map[string]*tenantGroup
}

// tenantGroup is one tenant's slice of a regrouped mixed batch.
type tenantGroup struct {
	recs []flowlog.Record
	tcs  []trace.Context
}

// nextSlot extends batch by one reusable slot, growing the backing array
// only when capacity runs out (first batches, or a count above any seen
// before on this connection).
//
//vet:borrowed batch return
func nextSlot(batch []flowlog.Record) []flowlog.Record {
	if len(batch) < cap(batch) {
		return batch[:len(batch)+1]
	}
	return append(batch, flowlog.Record{})
}

// cmdIngest reads n binary frames — bare legacy frames, or flagged frames
// when the command carries the T marker — and feeds them to the session
// tenant's realm (per-frame tenant tags override the session, routed in
// ingestTagged). The returned batch lives in sc and is overwritten by the
// next INGEST.
func (s *Server) cmdIngest(fields []string, r *bufio.Reader, sc *connScratch, ses *session) (any, error) {
	traced := false
	switch {
	case len(fields) == 2:
	case len(fields) == 3 && strings.ToUpper(fields[2]) == "T":
		traced = true
	default:
		return nil, errors.New("usage: INGEST <count> [T]")
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return nil, errors.New("bad count")
	}
	if !traced {
		tr := ses.Engine().Tracer()
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		batch, err := readBatch(r, n, sc)
		if err != nil {
			return nil, err
		}
		// Legacy batches carry no upstream contexts, so the server samples
		// here: that makes the daemon's -trace-sample useful for
		// file-driven ingest (graphctl send), with journeys starting at
		// the wire instead of the NIC. With sampling off, Sample is a
		// branch per record.
		var tcs []trace.Context
		if tr != nil {
			d := time.Since(start)
			note := "frames=" + strconv.Itoa(n)
			for i := range batch {
				c := tr.Sample()
				if !c.Sampled() {
					continue
				}
				if tcs == nil {
					tcs = make([]trace.Context, len(batch))
				}
				tcs[i] = c
				tr.Record(c, "wire.ingest", start, d, note)
			}
		}
		ses.IngestTraced(batch, tcs)
		s.tel.frames.Add(int64(n))
		return textResponse(fmt.Sprintf("OK %d", n)), nil
	}
	start := time.Now()
	batch, tcs, tenants, err := readBatchFlagged(r, n, sc)
	if err != nil {
		return nil, err
	}
	if tr := ses.Engine().Tracer(); tr != nil {
		// The "wire.ingest" hop: the sampled record crossed the protocol
		// and decoded server-side.
		d := time.Since(start)
		note := "frames=" + strconv.Itoa(n)
		for _, tc := range tcs {
			if tc.Sampled() {
				tr.Record(tc, "wire.ingest", start, d, note)
			}
		}
	}
	if err := s.ingestTagged(ses, sc, batch, tcs, tenants); err != nil {
		return nil, err
	}
	s.tel.frames.Add(int64(n))
	return textResponse(fmt.Sprintf("OK %d", n)), nil
}

// ingestTagged routes a flagged batch by per-frame tenant tag (""
// meaning the session tenant). The overwhelmingly common case — every
// frame bound for one tenant — ingests the borrowed slice directly; a
// genuinely mixed batch regroups into sc's per-tenant buffers, copying
// each record exactly once. An unadmittable tag (tenant cap) rejects the
// whole batch before any record lands, so a batch is all-or-nothing.
//
//vet:borrowed batch tcs
func (s *Server) ingestTagged(ses *session, sc *connScratch, batch []flowlog.Record, tcs []trace.Context, tenants []string) error {
	if len(tenants) == 0 {
		return nil // empty declared batch
	}
	// Effective tenant per frame is its tag, or the session tenant when
	// untagged; the batch is uniform when every frame resolves the same.
	first := tenants[0]
	if first == "" {
		first = ses.tenant
	}
	mixed := false
	for _, t := range tenants[1:] {
		if t == "" {
			t = ses.tenant
		}
		if t != first {
			mixed = true
			break
		}
	}
	if !mixed {
		target := ses.Realm
		if first != ses.tenant {
			r, err := s.realms.Realm(first)
			if err != nil {
				return err
			}
			target = r
		}
		target.IngestTraced(batch, tcs)
		return nil
	}
	// Mixed batch: resolve every realm first (all-or-nothing), then
	// regroup per tenant preserving each tenant's record order.
	if sc.groups == nil {
		sc.groups = make(map[string]*tenantGroup, 4)
	}
	for _, g := range sc.groups {
		g.recs, g.tcs = g.recs[:0], g.tcs[:0]
	}
	realms := make(map[string]*realm.Realm, 4)
	for _, t := range tenants {
		if t == "" {
			t = ses.tenant
		}
		if realms[t] == nil {
			r := s.realms.Get(t)
			if r == nil {
				var err error
				if r, err = s.realms.Realm(t); err != nil {
					return err
				}
			}
			realms[t] = r
		}
	}
	for i, rec := range batch {
		t := tenants[i]
		if t == "" {
			t = ses.tenant
		}
		g := sc.groups[t]
		if g == nil {
			g = &tenantGroup{}
			sc.groups[t] = g
		}
		g.recs = append(g.recs, rec)
		if tcs != nil {
			g.tcs = append(g.tcs, tcs[i])
		}
	}
	for t, g := range sc.groups {
		if len(g.recs) == 0 {
			continue
		}
		realms[t].IngestTraced(g.recs, g.tcs)
	}
	return nil
}

// readBatch reads a declared batch of n binary flowlog frames into sc's
// reused buffer, decoding each run of whole frames in place from r's own
// buffer (Peek, DecodeBinaryInto, Discard) rather than copying every frame
// out first; r's buffer must hold at least one frame. Its protocol
// invariant: once the INGEST header promised n frames, exactly n*WireSize
// bytes are consumed from r even when a frame fails to decode — leaving
// unread frames in the stream would desync the protocol, parsing leftover
// binary bytes as commands. Only a short read (fewer bytes than promised)
// may leave the stream mid-batch, and that already ends the connection.
//
//vet:borrowed sc return
func readBatch(r *bufio.Reader, n int, sc *connScratch) ([]flowlog.Record, error) {
	if sc.batch == nil {
		pre := min(n, 4096) // don't let a huge declared count pre-allocate unboundedly
		sc.batch = make([]flowlog.Record, 0, pre)
	}
	batch := sc.batch[:0]
	var decodeErr error
	for i := 0; i < n; {
		run := min(n-i, r.Size()/flowlog.WireSize)
		buf, err := r.Peek(run * flowlog.WireSize)
		if err != nil {
			sc.batch = batch
			return nil, fmt.Errorf("short ingest stream at record %d", i+len(buf)/flowlog.WireSize)
		}
		// After a bad frame the rest of the declared batch is only drained.
		for k := 0; k < run && decodeErr == nil; k++ {
			batch = nextSlot(batch)
			if err := flowlog.DecodeBinaryInto(&batch[len(batch)-1], buf[k*flowlog.WireSize:]); err != nil {
				batch = batch[:len(batch)-1]
				decodeErr = fmt.Errorf("record %d: %v", i+k, err)
			}
		}
		//lint:allow errdrop Discard of bytes just Peeked cannot fail
		r.Discard(len(buf))
		i += run
	}
	sc.batch = batch
	if decodeErr != nil {
		return nil, decodeErr
	}
	return batch, nil
}

// Stats is the STATS response: counts only. Per-window answers are QUERY's.
//
//wire:schema
type Stats struct {
	Records       int64   `json:"records"`
	RecordsPerSec float64 `json:"records_per_sec"`
	Windows       int     `json:"windows"`
	// Sharded hot-path observability: engine ingest width, per-shard
	// work breakdown, and time spent merging partial windows.
	Workers int         `json:"workers"`
	MergeMS float64     `json:"merge_ms"`
	Shards  []ShardInfo `json:"shards,omitempty"`
}

// ShardInfo is one shard's entry in the STATS response.
//
//wire:schema
type ShardInfo struct {
	Records int64   `json:"records"`
	BusyMS  float64 `json:"busy_ms"`
	Depth   int     `json:"depth"`
}

// errNoPlane answers every read of the analysis plane of a realm running
// without one.
var errNoPlane = errors.New("no analysis plane attached (start cloudgraphd with -live)")

// stats answers STATS. The engine's ingest counters always answer; the
// window count reads the timeline and stays zero without a plane.
func stats(ses *session) Stats {
	cost := ses.Engine().Cost()
	st := Stats{
		Records:       cost.Records,
		RecordsPerSec: cost.RecordsPerSec,
		Workers:       cost.Workers,
		MergeMS:       float64(cost.Merge.Microseconds()) / 1e3,
	}
	for _, sh := range cost.Shards {
		st.Shards = append(st.Shards, ShardInfo{
			Records: sh.Records,
			BusyMS:  float64(sh.Busy.Microseconds()) / 1e3,
			Depth:   sh.Depth,
		})
	}
	if p := ses.Plane(); p != nil {
		st.Windows = p.Timeline().Len()
	}
	return st
}

// writeLine writes one text response line.
func writeLine(w *bufio.Writer, s string) error {
	if _, err := w.WriteString(s); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// writeJSON writes one compact JSON line.
func writeJSON(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}
