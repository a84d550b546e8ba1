package analytics

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// errQueryUsage is the canonical QUERY syntax error.
var errQueryUsage = errors.New(`usage: QUERY <analysis> [<epoch>|<rfc3339-time>|latest]`)

// querySelector is a decoded QUERY target: a raw epoch (0 = latest) or,
// when At is non-zero, a wall-clock instant to resolve through the
// timeline and the durable history index.
type querySelector struct {
	epoch uint64
	at    time.Time
}

// parseQuery decodes a QUERY command's whitespace-split fields (fields[0]
// is the command word itself) into an analysis name and a selector. It is
// a pure function of its input — no server state — so the fuzzer can
// drive it directly alongside the binary wire decoders. An RFC3339
// timestamp is one whitespace-free field, so it arrives whole.
func parseQuery(fields []string) (name string, sel querySelector, err error) {
	if len(fields) < 2 || len(fields) > 3 {
		return "", querySelector{}, errQueryUsage
	}
	name = fields[1]
	if !validAnalysisName(name) {
		return "", querySelector{}, fmt.Errorf("bad analysis name %q: want lowercase letters, digits, '.', '_' or '-'", name)
	}
	if len(fields) == 2 {
		return name, querySelector{}, nil
	}
	raw := fields[2]
	if strings.EqualFold(raw, "latest") {
		return name, querySelector{}, nil
	}
	if n, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
		if n == 0 {
			return "", querySelector{}, fmt.Errorf(`bad epoch %q: want a positive integer, an RFC3339 time or "latest"`, raw)
		}
		return name, querySelector{epoch: n}, nil
	}
	if at, perr := time.Parse(time.RFC3339, raw); perr == nil {
		return name, querySelector{at: at}, nil
	}
	return "", querySelector{}, fmt.Errorf(`bad selector %q: want a positive integer epoch, an RFC3339 time or "latest"`, raw)
}

// validAnalysisName bounds the QUERY name charset so a desynced binary
// stream read as a command line cannot smuggle arbitrary bytes into error
// messages or logs.
func validAnalysisName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// QueryResult is the QUERY response: one online analysis result pinned to
// the epoch whose snapshot produced it, so a "latest" answer is
// attributable and exactly re-queryable.
//
//wire:schema
type QueryResult struct {
	Analysis string          `json:"analysis"`
	Epoch    uint64          `json:"epoch"`
	Result   json.RawMessage `json:"result"`
}

// writeLine writes q as one JSON line framed around its stored result
// bytes, equal byte for byte to json.Marshal(q) plus the newline but
// without re-validating and re-compacting Result: Analysis has passed
// validAnalysisName, so it needs no escaping, and the plane's results come
// out of json.Marshal, which compacting again leaves unchanged.
//
//wire:codec QueryResult
func (q QueryResult) writeLine(w *bufio.Writer) error {
	b := append(w.AvailableBuffer(), `{"analysis":"`...)
	b = append(b, q.Analysis...)
	b = append(b, `","epoch":`...)
	b = strconv.AppendUint(b, q.Epoch, 10)
	b = append(b, `,"result":`...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	if _, err := w.Write(q.Result); err != nil {
		return err
	}
	_, err := w.WriteString("}\n")
	return err
}

// noAnswer marks the ERR of a well-formed QUERY that has no answer: no
// plane, no such analysis, or no window at the epoch or time asked about
// (yet, or any more). It is counted like every rejected command, but it
// is not a protocol fault, so it does not trip the flight recorder: a
// poller that starts before the first seal is not an anomaly.
type noAnswer struct{ error }

func cmdQuery(fields []string, ses *session) (any, error) {
	plane := ses.Plane()
	if plane == nil {
		return nil, noAnswer{errNoPlane}
	}
	name, sel, err := parseQuery(fields)
	if err != nil {
		return nil, err
	}
	epoch := sel.epoch
	if !sel.at.IsZero() {
		ep, ok := plane.ResolveTime(sel.at)
		if !ok {
			return nil, noAnswer{fmt.Errorf("no window covers %s (in memory or on disk)", sel.at.Format(time.RFC3339))}
		}
		epoch = ep
	}
	at, res, err := plane.Query(name, epoch)
	if err != nil {
		return nil, noAnswer{err}
	}
	return QueryResult{Analysis: name, Epoch: at, Result: res}, nil
}
