package main

import (
	"strings"
	"testing"
)

// TestParseArgsRejectsBadFlags: a value the daemon would silently replace
// with its own default is refused, naming the flag.
func TestParseArgsRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-queue", "-5"}, "-queue"},
		{[]string{"-snapshot-every", "0"}, "-snapshot-every"},
		{[]string{"-snapshot-every", "-1"}, "-snapshot-every"},
		{[]string{"-racks", "4", "stray"}, "stray"},
	} {
		if _, err := parseArgs(tc.args); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}

	o, err := parseArgs([]string{"-queue", "1", "-snapshot-every", "64", "-racks", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if o.queueCap != 1 || o.snapEvery != 64 || o.racks != 4 || o.algo != "RISA" {
		t.Errorf("parsed options %+v", o)
	}
}
