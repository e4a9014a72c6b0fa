package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the sweep command: with
// SWEEP_TEST_MAIN set, the process runs main on its own arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs the command with args and returns its exit code and
// stderr.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatal(err)
		return 0, ""
	}
}

// TestExitStatus pins the exit-2 usage errors — a stray positional
// argument, including the retired worker subcommand, the retired
// -backend flag, a -partitions value below -1, and inputs beyond the
// simulated memory — and that one -params value can serve several
// pattern kinds, each seeing only the caller's parameters. A Go panic
// exits 2 as well, so no case may print a panic trace.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-fig", "3", "extra"}, 2, `sweep: unexpected argument "extra"`},
		{[]string{"worker", "-join", "http://x"}, 2, `sweep: unexpected argument "worker"`},
		{[]string{"-backend", "disk"}, 2, "flag provided but not defined: -backend"},
		{[]string{"serve", "extra"}, 2, `sweep serve: unexpected argument "extra"`},
		{[]string{"-partitions", "-5"}, 2, "sweep: bad -partitions -5"},
		// The unlistenable address makes a missing check fail fast
		// instead of serving forever.
		{[]string{"serve", "-partitions", "-5", "-addr", "nope"}, 2, "sweep serve: bad -partitions -5"},
		// Inputs that would exhaust simulated or host memory are usage
		// errors, not panics.
		{[]string{"-kind", "fig5", "-topo", "small", "-matn", "1000"}, 2, "does not fit"},
		{[]string{"-fig", "3", "-topo", "small", "-grid", "colibriq=17"}, 2, "bad grid colibriq 17"},
		{[]string{"-kind", "fig3", "-topo", "small", "-bins", "1048576", "-warmup", "2000",
			"-measure", "100", "-cache", "off"}, 2, "fig3 series amoadd with 1048576 bins does not fit"},
		{[]string{"-kind", "fig4", "-topo", "small", "-bins", "1048576", "-warmup", "2000",
			"-measure", "100", "-cache", "off"}, 2, "does not fit the 65536-word memory of small"},
		// A bin count that fits every fig3 series still runs.
		{[]string{"-kind", "fig3", "-topo", "small", "-bins", "16384", "-warmup", "200",
			"-measure", "100", "-cache", "off", "-quiet"}, 0, ""},
		{[]string{"-kind", "barrier,rcu", "-topo", "small", "-params", "wait=mwait",
			"-cache", "off", "-quiet"}, 0, ""},
	} {
		code, stderr := runSweep(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic:") {
			t.Errorf("sweep %s: exit %d, stderr %q; want exit %d with %q and no panic",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.want)
		}
	}
}
