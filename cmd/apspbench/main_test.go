package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestResolveExperiments: -exp is split on commas BEFORE the suite
// lookup (a "suite,non-suite" list used to skip harness.NewSuite and
// dereference a nil suite), and an unknown name fails up front with the
// valid names in the message — main exits non-zero on that error.
func TestResolveExperiments(t *testing.T) {
	for _, tc := range []struct {
		exp       string
		names     []string
		needSuite bool
		errHas    string
	}{
		{exp: "all", names: experiments, needSuite: true},
		{exp: "comm", names: []string{"comm"}},
		{exp: "factors", names: []string{"factors"}, needSuite: true},
		{exp: "table2-bandwidth,factors", names: []string{"table2-bandwidth", "factors"}, needSuite: true},
		{exp: "opcount, lower", names: []string{"opcount", "lower"}, needSuite: true},
		{exp: "comm,nope", errHas: `unknown experiment "nope" (valid: all, table2-memory, `},
	} {
		names, needSuite, err := resolveExperiments(tc.exp)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) || !strings.Contains(err.Error(), "fig1") {
				t.Errorf("-exp %q: err = %v, want one naming the valid experiments", tc.exp, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(names, tc.names) || needSuite != tc.needSuite {
			t.Errorf("-exp %q: got %v needSuite=%v err=%v, want %v needSuite=%v", tc.exp, names, needSuite, err, tc.names, tc.needSuite)
		}
	}
}
