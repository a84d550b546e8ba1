// Package flowlog defines the connection-summary telemetry record that the
// whole system consumes, mirroring Table 2 of the paper: periodic per-VM
// summaries of every flow that enters or leaves the VM, with packet and byte
// counters in both directions.
//
// A Record is the log line a single monitored VM (more precisely, the
// smartNIC or virtual switch attached to its host) emits for one flow during
// one aggregation interval. Flows between two monitored VMs therefore appear
// twice in the stream — once from each side, with Local and Remote swapped —
// and downstream consumers deduplicate (see internal/ingest).
package flowlog

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Record is one connection summary: the Table 2 schema.
//
// Time is the start of the aggregation interval. Local identifies the
// monitored endpoint (the VM whose NIC produced the record); Remote is the
// peer, which may or may not be monitored. Counters are from the local
// endpoint's perspective: PacketsSent/BytesSent left the local VM,
// PacketsRcvd/BytesRcvd arrived at it.
//
// Record is a wire type: its fields cross process boundaries through the
// CSV and binary codecs, so construction must use keyed literals and every
// codec must handle every field (enforced by cloudgraph-vet's wirestruct
// analyzer).
//
//wire:schema
type Record struct {
	Time        time.Time
	LocalIP     netip.Addr
	LocalPort   uint16
	RemoteIP    netip.Addr
	RemotePort  uint16
	PacketsSent uint64
	PacketsRcvd uint64
	BytesSent   uint64
	BytesRcvd   uint64
}

// Valid reports whether the record is well-formed: both addresses must be
// valid and the timestamp non-zero.
func (r Record) Valid() bool {
	return r.LocalIP.IsValid() && r.RemoteIP.IsValid() && !r.Time.IsZero()
}

// TotalBytes returns the bytes exchanged in both directions.
func (r Record) TotalBytes() uint64 { return r.BytesSent + r.BytesRcvd }

// FlowKey identifies the flow a record summarizes, directionless: the lower
// endpoint sorts first so the key is identical regardless of which side
// logged the flow. It is comparable and suitable as a map key.
type FlowKey struct {
	A, B netip.AddrPort
}

// Key returns the directionless FlowKey for the record.
func (r Record) Key() FlowKey {
	a := netip.AddrPortFrom(r.LocalIP, r.LocalPort)
	b := netip.AddrPortFrom(r.RemoteIP, r.RemotePort)
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return FlowKey{A: a, B: b}
}

// MarshalCSV renders the record as one comma-separated line without a
// trailing newline, fields in Table 2 order:
//
//	time,localIP,localPort,remoteIP,remotePort,pktsSent,pktsRcvd,bytesSent,bytesRcvd
//
// Time is formatted as Unix seconds to keep lines compact and parseable
// across providers.
//
//wire:codec Record
func (r Record) MarshalCSV() string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(strconv.FormatInt(r.Time.Unix(), 10))
	b.WriteByte(',')
	b.WriteString(r.LocalIP.String())
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(uint64(r.LocalPort), 10))
	b.WriteByte(',')
	b.WriteString(r.RemoteIP.String())
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(uint64(r.RemotePort), 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(r.PacketsSent, 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(r.PacketsRcvd, 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(r.BytesSent, 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(r.BytesRcvd, 10))
	return b.String()
}

// ErrBadRecord is returned by ParseCSV for malformed lines.
var ErrBadRecord = errors.New("flowlog: malformed record")

// ParseCSV parses a line produced by MarshalCSV.
//
//wire:codec Record
func ParseCSV(line string) (Record, error) {
	var r Record
	fields := strings.Split(strings.TrimSpace(line), ",")
	if len(fields) != 9 {
		return r, fmt.Errorf("%w: want 9 fields, got %d", ErrBadRecord, len(fields))
	}
	sec, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return r, fmt.Errorf("%w: time: %v", ErrBadRecord, err)
	}
	r.Time = time.Unix(sec, 0).UTC()
	if r.LocalIP, err = netip.ParseAddr(fields[1]); err != nil {
		return r, fmt.Errorf("%w: local ip: %v", ErrBadRecord, err)
	}
	lp, err := strconv.ParseUint(fields[2], 10, 16)
	if err != nil {
		return r, fmt.Errorf("%w: local port: %v", ErrBadRecord, err)
	}
	r.LocalPort = uint16(lp)
	if r.RemoteIP, err = netip.ParseAddr(fields[3]); err != nil {
		return r, fmt.Errorf("%w: remote ip: %v", ErrBadRecord, err)
	}
	rp, err := strconv.ParseUint(fields[4], 10, 16)
	if err != nil {
		return r, fmt.Errorf("%w: remote port: %v", ErrBadRecord, err)
	}
	r.RemotePort = uint16(rp)
	counters := [...]*uint64{&r.PacketsSent, &r.PacketsRcvd, &r.BytesSent, &r.BytesRcvd}
	for i, p := range counters {
		v, err := strconv.ParseUint(fields[5+i], 10, 64)
		if err != nil {
			return r, fmt.Errorf("%w: counter %d: %v", ErrBadRecord, i, err)
		}
		*p = v
	}
	return r, nil
}

// WireSize is the approximate on-the-wire size of one record in bytes, used
// for telemetry-cost (COGS) accounting. It matches the fixed binary encoding
// in codec.go.
const WireSize = 8 + 16 + 2 + 16 + 2 + 8*4
