package main

import (
	"strings"
	"testing"
)

// TestOptionsCheck pins which flag values flowgen refuses before it builds
// a cluster: each bad value fails with a message naming it, and the
// defaults and every accepted spelling pass.
func TestOptionsCheck(t *testing.T) {
	def := options{dataset: "microservicebench", scale: 0.25, hours: 1, out: "-", format: "binary", tenants: 1, skew: "zipf"}
	for _, tc := range []struct {
		name string
		edit func(*options)
		bad  string // substring of the error, "" when the options pass
	}{
		{"defaults", func(*options) {}, ""},
		{"csv", func(o *options) { o.format = "csv" }, ""},
		{"uniform", func(o *options) { o.skew = "uniform" }, ""},
		{"provider", func(o *options) { o.provider = "GCP" }, ""},
		{"attack", func(o *options) { o.attack = "beacon" }, ""},
		{"tenants", func(o *options) { o.tenants = 8 }, ""},
		{"format", func(o *options) { o.format = "bin" }, `"bin"`},
		{"zero hours", func(o *options) { o.hours = 0 }, "-hours 0"},
		{"negative hours", func(o *options) { o.hours = -2 }, "-hours -2"},
		{"zero tenants", func(o *options) { o.tenants = 0 }, "-tenants 0"},
		{"skew", func(o *options) { o.skew = "zipfian" }, `"zipfian"`},
		{"unknown provider", func(o *options) { o.provider = "oracle" }, `"oracle"`},
		{"unknown attack", func(o *options) { o.attack = "ddos" }, `"ddos"`},
		{"tenants csv", func(o *options) { o.tenants, o.format = 2, "csv" }, "-tenants"},
	} {
		o := def
		tc.edit(&o)
		err := o.check()
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.bad)
		}
	}
}
