package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv, when set, makes the test binary stand in for the gpureach
// command: TestMain runs main on its space-separated words.
const argsEnv = "GPUREACH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"gpureach"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args in a child process and returns its
// exit code, stdout and stderr.
func runCLI(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("gpureach %s: %v", args, err)
	return 0, "", ""
}

// TestStrayArgumentsAreUsageErrors: a word that is not a subcommand
// must not fall through to a default single run that ignores it.
func TestStrayArgumentsAreUsageErrors(t *testing.T) {
	for _, args := range []string{
		"frobnicate -scale 0.01",
		"worker",
		"-scale 0.01 extra",
	} {
		code, stdout, stderr := runCLI(t, args)
		if code != 2 {
			t.Errorf("gpureach %s: exit %d, want 2 (stdout %q)", args, code, stdout)
		}
		if stdout != "" {
			t.Errorf("gpureach %s: printed a run on stdout: %q", args, stdout)
		}
		for _, sub := range []string{"sweep", "serve", "exp"} {
			if !strings.Contains(stderr, sub) {
				t.Errorf("gpureach %s: stderr %q does not list subcommand %q", args, stderr, sub)
			}
		}
	}
}
