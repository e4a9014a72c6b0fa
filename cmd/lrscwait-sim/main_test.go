package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the command: with
// LRSCWAIT_SIM_TEST_MAIN set, the process runs main on its own
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("LRSCWAIT_SIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBinsExitStatus pins the histogram's bin-count checks: a count
// below 1, or one whose sections pass the topology's memory, is a usage
// error (exit 2 with a message), not a panic. A Go panic exits 2 too,
// so stderr must also hold no panic trace.
func TestBinsExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-scale", "small", "-bins", "0"}, 2, "lrscwait-sim: bad -bins 0"},
		{[]string{"-scale", "small", "-bins", "1048576"}, 2, "does not fit the 65536-word memory of small"},
		// The MCS lock's sections end past the bins: 16384 bins fit
		// the plain variants but not this one.
		{[]string{"-scale", "small", "-bins", "16384", "-variant", "mwait-mcs-lock"}, 2, "does not fit"},
		{[]string{"-scale", "small", "-bins", "16384", "-warmup", "100", "-measure", "100"}, 0, ""},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "LRSCWAIT_SIM_TEST_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) ||
			strings.Contains(stderr.String(), "panic:") {
			t.Errorf("lrscwait-sim %s: exit %d, stderr %q; want exit %d with %q and no panic",
				strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.want)
		}
	}
}
