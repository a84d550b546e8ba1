package flowlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"
)

const sampleNSG = `{
  "records": [
    {
      "time": "2018-11-13T12:00:35.3899262Z",
      "properties": {
        "Version": 2,
        "flows": [
          {
            "rule": "DefaultRule_AllowInternetOutBound",
            "flows": [
              {
                "mac": "000D3AF87856",
                "flowTuples": [
                  "1542110377,10.0.0.4,13.67.143.118,44931,443,T,O,A,B,,,,",
                  "1542110437,10.0.0.4,13.67.143.118,44931,443,T,O,A,C,25,4096,12,2500",
                  "1542110497,10.0.0.4,13.67.143.118,44931,443,T,O,A,E,30,5000,14,3000"
                ]
              }
            ]
          },
          {
            "rule": "DefaultRule_AllowVnetInBound",
            "flows": [
              {
                "mac": "000D3AF87856",
                "flowTuples": [
                  "1542110402,10.0.0.5,10.0.0.4,51831,8080,T,I,A,C,100,150000,60,7000",
                  "1542110403,192.0.2.9,10.0.0.4,55555,22,T,I,D,B,,,,"
                ]
              }
            ]
          }
        ]
      }
    }
  ]
}`

func TestParseAzureNSG(t *testing.T) {
	recs, err := ParseAzureNSG(strings.NewReader(sampleNSG))
	if err != nil {
		t.Fatal(err)
	}
	// B tuples and denied tuples yield no record: expect 3 (C, E, C).
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3: %+v", len(recs), recs)
	}
	out := recs[0]
	if out.LocalIP.String() != "10.0.0.4" || out.LocalPort != 44931 {
		t.Errorf("outbound local = %s:%d", out.LocalIP, out.LocalPort)
	}
	if out.RemoteIP.String() != "13.67.143.118" || out.RemotePort != 443 {
		t.Errorf("outbound remote = %s:%d", out.RemoteIP, out.RemotePort)
	}
	if out.PacketsSent != 25 || out.BytesSent != 4096 || out.PacketsRcvd != 12 || out.BytesRcvd != 2500 {
		t.Errorf("outbound counters = %+v", out)
	}
	if out.Time.Unix() != 1542110437 {
		t.Errorf("time = %v", out.Time)
	}

	in := recs[2]
	if in.LocalIP.String() != "10.0.0.4" || in.LocalPort != 8080 {
		t.Errorf("inbound local = %s:%d (direction not flipped)", in.LocalIP, in.LocalPort)
	}
	if in.RemoteIP.String() != "10.0.0.5" || in.RemotePort != 51831 {
		t.Errorf("inbound remote = %s:%d", in.RemoteIP, in.RemotePort)
	}
	// Inbound: src→dst traffic arrives at the VM.
	if in.BytesRcvd != 150000 || in.BytesSent != 7000 {
		t.Errorf("inbound counters not oriented to the VM: %+v", in)
	}
}

func TestParseAzureNSGErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"records":[{"properties":{"Version":1,"flows":[]}}]}`,
		`{"records":[{"properties":{"Version":2,"flows":[{"flows":[{"flowTuples":["bad,tuple"]}]}]}}]}`,
		`{"records":[{"properties":{"Version":2,"flows":[{"flows":[{"flowTuples":["x,10.0.0.4,10.0.0.5,1,2,T,O,A,E,1,1,1,1"]}]}]}}]}`,
		`{"records":[{"properties":{"Version":2,"flows":[{"flows":[{"flowTuples":["1,10.0.0.4,10.0.0.5,1,2,T,X,A,E,1,1,1,1"]}]}]}}]}`,
	}
	for _, c := range cases {
		if _, err := ParseAzureNSG(strings.NewReader(c)); err == nil {
			t.Errorf("want error for %.40q", c)
		}
	}
}

func TestAzureNSGRoundTrip(t *testing.T) {
	want := []Record{
		{
			Time: unixTime(1700000000), LocalIP: mustAddrT(t, "10.1.0.4"), LocalPort: 50000,
			RemoteIP: mustAddrT(t, "10.1.0.9"), RemotePort: 443,
			PacketsSent: 7, PacketsRcvd: 5, BytesSent: 900, BytesRcvd: 1200,
		},
		{
			Time: unixTime(1700000060), LocalIP: mustAddrT(t, "10.1.0.4"), LocalPort: 50001,
			RemoteIP: mustAddrT(t, "198.51.100.7"), RemotePort: 22,
			PacketsSent: 1, PacketsRcvd: 1, BytesSent: 64, BytesRcvd: 64,
		},
	}
	blob, err := AppendAzureNSG(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAzureNSG(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func mustAddrT(t *testing.T, s string) netip.Addr {
	t.Helper()
	return mustAddr(t, s)
}

// AppendAzureNSG renders records as a version-2 NSG flow log export, the
// inverse of ParseAzureNSG (all under one synthetic rule and MAC).
func AppendAzureNSG(records []Record) ([]byte, error) {
	tuples := make([]string, 0, len(records))
	for _, r := range records {
		tuples = append(tuples, fmt.Sprintf("%d,%s,%s,%d,%d,T,O,A,E,%d,%d,%d,%d",
			r.Time.Unix(), r.LocalIP, r.RemoteIP, r.LocalPort, r.RemotePort,
			r.PacketsSent, r.BytesSent, r.PacketsRcvd, r.BytesRcvd))
	}
	env := map[string]any{
		"records": []map[string]any{{
			"time": time.Unix(0, 0).UTC().Format(time.RFC3339),
			"properties": map[string]any{
				"Version": 2,
				"flows": []map[string]any{{
					"rule": "cloudgraph-export",
					"flows": []map[string]any{{
						"mac":        "000D3AF87856",
						"flowTuples": tuples,
					}},
				}},
			},
		}},
	}
	return json.Marshal(env)
}
