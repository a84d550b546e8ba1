package analytics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/trace"
)

// Client speaks the analytics protocol. It is not safe for concurrent use;
// open one client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 256<<10),
	}, nil
}

// Close sends QUIT and closes the connection. A QUIT write failure is
// reported in preference to the close error, which is usually a
// consequence of the same broken connection.
func (c *Client) Close() error {
	werr := c.send("QUIT\n")
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// send writes one command line and flushes it to the server.
func (c *Client) send(format string, args ...any) error {
	if _, err := fmt.Fprintf(c.w, format, args...); err != nil {
		return err
	}
	return c.w.Flush()
}

// readLine reads one response line, translating ERR responses to errors.
func (c *Client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return "", fmt.Errorf("analytics: %s", strings.TrimPrefix(line, "ERR "))
	}
	return line, nil
}

// Ingest streams a batch of records.
func (c *Client) Ingest(recs []flowlog.Record) error {
	if _, err := fmt.Fprintf(c.w, "INGEST %d\n", len(recs)); err != nil {
		return err
	}
	buf := make([]byte, 0, flowlog.WireSize)
	for _, r := range recs {
		buf = flowlog.AppendBinary(buf[:0], r)
		if _, err := c.w.Write(buf); err != nil {
			return err
		}
	}
	return c.finishIngest(len(recs))
}

// IngestTraced streams a batch with its out-of-band trace contexts using
// the flagged-frame variant of INGEST. tcs must be nil or parallel to
// recs; with no sampled context (or nil tcs) it falls back to the legacy
// framing, so an untraced caller never pays the flag bytes.
func (c *Client) IngestTraced(recs []flowlog.Record, tcs []trace.Context) error {
	sampled := false
	if len(tcs) == len(recs) {
		for _, tc := range tcs {
			if tc.Sampled() {
				sampled = true
				break
			}
		}
	}
	if !sampled {
		return c.Ingest(recs)
	}
	if _, err := fmt.Fprintf(c.w, "INGEST %d T\n", len(recs)); err != nil {
		return err
	}
	buf := make([]byte, 0, 1+flowlog.WireSize+traceFieldSize)
	for i, r := range recs {
		buf = appendFlaggedFrame(buf[:0], r, tcs[i])
		if _, err := c.w.Write(buf); err != nil {
			return err
		}
	}
	return c.finishIngest(len(recs))
}

// Tenant switches the connection's session tenant: every later command
// reads and ingests that tenant's pipeline plane. The server admits the
// realm on first use; invalid names or the tenant cap answer ERR.
func (c *Client) Tenant(name string) error {
	if strings.ContainsAny(name, " \t\r\n") || name == "" {
		return fmt.Errorf("bad tenant %q", name)
	}
	if err := c.send("TENANT %s\n", name); err != nil {
		return err
	}
	_, err := c.readLine()
	return err
}

// IngestTagged streams a batch with per-record tenant tags using the
// flagged-frame variant of INGEST. tenants must be parallel to recs; ""
// leaves a record on the connection's session tenant. tcs may be nil or
// parallel trace contexts.
func (c *Client) IngestTagged(recs []flowlog.Record, tcs []trace.Context, tenants []string) error {
	if len(tenants) != len(recs) {
		return fmt.Errorf("tenants not parallel: %d tags for %d records", len(tenants), len(recs))
	}
	if _, err := fmt.Fprintf(c.w, "INGEST %d T\n", len(recs)); err != nil {
		return err
	}
	buf := make([]byte, 0, 1+flowlog.WireSize+traceFieldSize+1+64)
	for i, r := range recs {
		var tc trace.Context
		if tcs != nil {
			tc = tcs[i]
		}
		buf = appendTaggedFrame(buf[:0], r, tc, tenants[i])
		if _, err := c.w.Write(buf); err != nil {
			return err
		}
	}
	return c.finishIngest(len(recs))
}

// finishIngest flushes a written batch and checks the OK response.
func (c *Client) finishIngest(n int) error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	var got int
	if _, err := fmt.Sscanf(line, "OK %d", &got); err != nil || got != n {
		return fmt.Errorf("analytics: unexpected ingest response %q", line)
	}
	return nil
}

// Flush closes the session tenant's open windows server-side, waits for
// its pipeline to settle, and returns the newest epoch: the windows its
// engine has published, recovered ones included.
func (c *Client) Flush() (int, error) {
	if err := c.send("FLUSH\n"); err != nil {
		return 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimPrefix(line, "OK "))
}

// jsonCmd sends a command and decodes the JSON line response into out.
func (c *Client) jsonCmd(cmd string, out any) error {
	if err := c.send("%s\n", cmd); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(line), out)
}

// Stats fetches server statistics.
func (c *Client) Stats() (Stats, error) {
	var s Stats
	err := c.jsonCmd("STATS", &s)
	return s, err
}

// Query fetches the named online analysis result at an epoch; epoch 0
// sends the "latest" selector. Requires a server with an analysis plane
// attached (cloudgraphd -live).
func (c *Client) Query(analysis string, epoch uint64) (QueryResult, error) {
	if epoch > 0 {
		return c.QuerySelector(analysis, strconv.FormatUint(epoch, 10))
	}
	return c.QuerySelector(analysis, "latest")
}

// QuerySelector sends a raw QUERY selector — a positive epoch, an RFC3339
// timestamp (resolved server-side through the timeline and the durable
// history index), or "latest".
func (c *Client) QuerySelector(analysis, selector string) (QueryResult, error) {
	if strings.ContainsAny(selector, " \t\r\n") || selector == "" {
		return QueryResult{}, fmt.Errorf("bad selector %q", selector)
	}
	var r QueryResult
	err := c.jsonCmd(fmt.Sprintf("QUERY %s %s", analysis, selector), &r)
	return r, err
}
