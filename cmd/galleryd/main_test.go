package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asDaemon is set in the environment of a copy of this test binary that is
// to run main with the arguments after "--" instead of the tests.
const asDaemon = "GALLERYD_TEST_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(asDaemon) == "1" {
		i := len(os.Args)
		for j, a := range os.Args {
			if a == "--" {
				i = j
				break
			}
		}
		os.Args = append([]string{"galleryd"}, os.Args[min(i+1, len(os.Args)):]...)
		flag.CommandLine = flag.NewFlagSet("galleryd", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailedRunWritesJSONLines: a galleryd that cannot start (a token file
// without -auth) or cannot bind its address exits 1, and every line it
// wrote to stderr, the error's included, is one JSON object.
func TestFailedRunWritesJSONLines(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"constructor": {[]string{"-mem", "-token-file", "tokens.json"}, "-token-file requires -auth"},
		"bind":        {[]string{"-mem", "-addr", taken.Addr().String()}, "address already in use"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, c.args...)...)
		cmd.Env = append(os.Environ(), asDaemon+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: exit %v, want status 1; stderr:\n%s", name, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		for i, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Errorf("%s: stderr line %d is not a JSON object: %q", name, i+1, line)
			}
		}
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err == nil {
			if e, _ := last["err"].(string); last["level"] != "ERROR" || last["service"] != "galleryd" || !strings.Contains(e, c.want) {
				t.Errorf("%s: last stderr record %v, want an ERROR from galleryd naming %q", name, last, c.want)
			}
		}
	}
}
