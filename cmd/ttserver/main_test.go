package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when the test binary is re-executed
// by TestFlagsRefused.
func TestMain(m *testing.M) {
	if os.Getenv("TTSERVER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestAdvertiseFor(t *testing.T) {
	for _, tc := range []struct{ bound, want string }{
		{":9090", "http://127.0.0.1:9090"},
		{"0.0.0.0:9091", "http://127.0.0.1:9091"},
		{"[::]:9092", "http://127.0.0.1:9092"},
		{"[::1]:9093", "http://[::1]:9093"},
		{"worker-3.internal:9094", "http://worker-3.internal:9094"},
		{"no-port", "http://no-port"},
	} {
		if got := advertiseFor(tc.bound); got != tc.want {
			t.Errorf("advertiseFor(%q) = %q, want %q", tc.bound, got, tc.want)
		}
	}
}

// TestFlagsRefused runs the command on lines it must refuse before
// building anything: exit 2 and one line naming the reason. A line it
// accepts instead starts a node, which the deadline kills.
func TestFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet"}, "-fleet needs -state-dir"},
		{[]string{"-sleep-scale", "1"}, "-sleep-scale applies only to a node started with -join"},
		{[]string{"-join", "http://127.0.0.1:1", "-service", "asr"}, "-service does not apply to a node started with -join"},
		{[]string{"-join", "http://127.0.0.1:1", "-fleet", "-state-dir", "x"}, "-fleet does not apply to a node started with -join"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "TTSERVER_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", tc.args, err)
		}
		if got := strings.TrimSpace(stderr.String()); !strings.Contains(got, tc.want) || strings.Contains(got, "\n") {
			t.Errorf("%v: stderr %q, want one line containing %q", tc.args, got, tc.want)
		}
	}
}
