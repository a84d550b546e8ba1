package flowlog

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Azure NSG flow log (version 2) ingestion: the concrete format behind the
// Table 3 "NSG Flow Logs" row, so real exports can replay through the same
// pipeline as synthetic telemetry. The format nests flow tuples under
// records → properties → flows (per rule) → flows (per MAC):
//
//	{"records": [{"time": "...", "properties": {"Version": 2, "flows": [
//	  {"rule": "...", "flows": [{"mac": "...", "flowTuples": [
//	    "1542110377,10.0.0.4,13.67.143.118,44931,443,T,O,A,B,,,,",
//	    "1542110437,10.0.0.4,13.67.143.118,44931,443,T,O,A,C,25,4096,12,2500"
//	  ]}]}]}}]}
//
// A version-2 tuple is: unix time, src IP, dst IP, src port, dst port,
// protocol (T/U), direction (I = into the NIC's VM, O = out of it), action
// (A/D), flow state (B begin, C continuing, E end) and, for C/E tuples,
// packets src→dst, bytes src→dst, packets dst→src, bytes dst→src.

// nsgEnvelope mirrors the JSON structure (fields we consume only).
type nsgEnvelope struct {
	Records []struct {
		Time       string `json:"time"`
		Properties struct {
			Version int `json:"Version"`
			Flows   []struct {
				Rule  string `json:"rule"`
				Flows []struct {
					Mac        string   `json:"mac"`
					FlowTuples []string `json:"flowTuples"`
				} `json:"flows"`
			} `json:"flows"`
		} `json:"properties"`
	} `json:"records"`
}

// ParseAzureNSG decodes a version-2 NSG flow log export into connection
// summaries. Tuples without counters (state B, or denied flows) produce no
// record — they carry no traffic. Denied (action D) tuples are skipped;
// the paper's telemetry summarizes traffic that flowed.
func ParseAzureNSG(r io.Reader) ([]Record, error) {
	var env nsgEnvelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("flowlog: decoding NSG log: %w", err)
	}
	var out []Record
	for ri := range env.Records {
		rec := &env.Records[ri]
		if v := rec.Properties.Version; v != 0 && v != 2 {
			return nil, fmt.Errorf("flowlog: unsupported NSG flow log version %d", v)
		}
		for _, rule := range rec.Properties.Flows {
			for _, mac := range rule.Flows {
				for _, tuple := range mac.FlowTuples {
					fr, ok, err := parseNSGTuple(tuple)
					if err != nil {
						return nil, fmt.Errorf("flowlog: tuple %q: %w", tuple, err)
					}
					if ok {
						out = append(out, fr)
					}
				}
			}
		}
	}
	return out, nil
}

// parseNSGTuple converts one version-2 tuple. ok is false for tuples that
// legitimately carry no summary (begin-state, denied).
func parseNSGTuple(tuple string) (Record, bool, error) {
	var r Record
	f := strings.Split(tuple, ",")
	if len(f) != 13 && len(f) != 9 {
		return r, false, fmt.Errorf("want 9 or 13 fields, got %d", len(f))
	}
	sec, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return r, false, fmt.Errorf("time: %v", err)
	}
	srcIP, err := netip.ParseAddr(f[1])
	if err != nil {
		return r, false, fmt.Errorf("src ip: %v", err)
	}
	dstIP, err := netip.ParseAddr(f[2])
	if err != nil {
		return r, false, fmt.Errorf("dst ip: %v", err)
	}
	srcPort, err := strconv.ParseUint(f[3], 10, 16)
	if err != nil {
		return r, false, fmt.Errorf("src port: %v", err)
	}
	dstPort, err := strconv.ParseUint(f[4], 10, 16)
	if err != nil {
		return r, false, fmt.Errorf("dst port: %v", err)
	}
	direction, action := f[6], f[7]
	if action == "D" {
		return r, false, nil // denied: no traffic to summarize
	}
	if len(f) == 9 || f[9] == "" {
		return r, false, nil // begin-state tuple: counters absent
	}
	var counters [4]uint64
	for i := 0; i < 4; i++ {
		if f[9+i] == "" {
			counters[i] = 0
			continue
		}
		v, err := strconv.ParseUint(f[9+i], 10, 64)
		if err != nil {
			return r, false, fmt.Errorf("counter %d: %v", i, err)
		}
		counters[i] = v
	}

	r.Time = time.Unix(sec, 0).UTC()
	// Orient to the monitored VM: for Outbound tuples the source is the
	// VM; for Inbound the destination is.
	switch direction {
	case "O":
		r.LocalIP, r.LocalPort = srcIP, uint16(srcPort)
		r.RemoteIP, r.RemotePort = dstIP, uint16(dstPort)
		r.PacketsSent, r.BytesSent = counters[0], counters[1]
		r.PacketsRcvd, r.BytesRcvd = counters[2], counters[3]
	case "I":
		r.LocalIP, r.LocalPort = dstIP, uint16(dstPort)
		r.RemoteIP, r.RemotePort = srcIP, uint16(srcPort)
		// src→dst flows *into* the VM: received from its perspective.
		r.PacketsRcvd, r.BytesRcvd = counters[0], counters[1]
		r.PacketsSent, r.BytesSent = counters[2], counters[3]
	default:
		return r, false, fmt.Errorf("direction %q", direction)
	}
	return r, true, nil
}
