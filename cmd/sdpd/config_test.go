package main

import (
	"bytes"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// boundFlags returns a config bound to a flag set of its own.
func boundFlags() (*config, *flag.FlagSet) {
	cfg, fs := new(config), flag.NewFlagSet("sdpd", flag.ContinueOnError)
	cfg.bind(fs)
	return cfg, fs
}

// TestFlagHelpUnchanged holds `sdpd -h` to the bytes recorded from the
// binary before the flags moved into config.bind: names, defaults and help
// text. A flag added, renamed or reworded on purpose rewrites the golden
// with -update.
func TestFlagHelpUnchanged(t *testing.T) {
	_, fs := boundFlags()
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	golden := filepath.Join("testdata", "flags.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag help drifted from %s:\n%s", golden, got.String())
	}
}

// TestEveryFlagReachesConfig: a flag set on the command line changes the
// config newServer is given — none is bound to a variable nothing reads.
func TestEveryFlagReachesConfig(t *testing.T) {
	defaults, fs := boundFlags()
	flags := 0
	fs.VisitAll(func(f *flag.Flag) {
		flags++
		cfg, fs := boundFlags()
		set := false
		for _, value := range []string{"true", "7", "7s"} {
			if fs.Set(f.Name, value) == nil && fs.Lookup(f.Name).Value.String() != f.DefValue {
				set = true
				break
			}
		}
		if !set {
			t.Errorf("-%s: found no value to set it to", f.Name)
		} else if reflect.DeepEqual(cfg, defaults) {
			t.Errorf("-%s is accepted and leaves the config as it was", f.Name)
		}
	})
	if flags != 36 {
		t.Errorf("%d flags registered, want 36", flags)
	}
}

// TestReadmeNamesEveryFlag: the README mentions every flag the daemon
// takes.
func TestReadmeNamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, fs := boundFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if !bytes.Contains(readme, []byte("`-"+f.Name)) && !bytes.Contains(readme, []byte(" -"+f.Name)) {
			t.Errorf("README.md never mentions -%s", f.Name)
		}
	})
}

// TestConfigValidate is every refusal and every warning a flag combination
// earns, with the words the operator reads.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		refusal     string
		warning     string
		wantNothing bool
	}{
		{name: "defaults", wantNothing: true},
		{name: "a full federated durable daemon", wantNothing: true, args: []string{"-state", "d.bolt", "-compact-every", "1m",
			"-federate", ":8474", "-federate-transport", "tcp", "-peer", "10.0.0.1:8474", "-advertise", "10.0.0.2:8474", "-slow-query", "1s",
			"-telemetry-journal", "tj", "-watch-every", "30s", "-watch-window", "1m"}},
		{name: "compaction of the in-memory store", wantNothing: true, args: []string{"-store", "mem", "-compact-every", "1m"}},
		{name: "an empty transport is udp", wantNothing: true, args: []string{"-federate", ":8474", "-federate-transport", ""}},

		{name: "unknown store", args: []string{"-store", "jsonl"}, refusal: `unknown -store "jsonl" (want bolt or mem)`},
		{name: "unknown transport", args: []string{"-federate-transport", "quic"}, refusal: `unknown federation transport "quic" (want udp or tcp)`},
		{name: "bad log level", args: []string{"-log-level", "loud"}, refusal: `bad -log-level "loud"`},
		{name: "migration without a source", args: []string{"-migrate-store", "new.bolt"}, refusal: "-migrate-store needs a source: set -state"},
		{name: "migration onto its source", args: []string{"-state", "a", "-migrate-store", "a"}, refusal: "-migrate-store needs a destination path different from -state"},

		{name: "peer without federate", args: []string{"-peer", "10.0.0.1:8474"}, warning: "-peer/-advertise/-slow-query have no effect without -federate"},
		{name: "advertise without federate", args: []string{"-advertise", "10.0.0.1:8474"}, warning: "-peer/-advertise/-slow-query have no effect without -federate"},
		{name: "slow-query without federate", args: []string{"-slow-query", "1s"}, warning: "-peer/-advertise/-slow-query have no effect without -federate"},
		{name: "compaction without a store", args: []string{"-compact-every", "1m"}, warning: "-compact-every has no effect without a store"},
		{name: "watchdog without a sampler", args: []string{"-sample-every", "0", "-watch-every", "1s"}, warning: "-telemetry-journal/-watch-every have nothing new to read without -sample-every > 0"},
		{name: "journal without a sampler", args: []string{"-sample-every", "0", "-telemetry-journal", "tj"}, warning: "-telemetry-journal/-watch-every have nothing new to read without -sample-every > 0"},
		{name: "window under four samples", args: []string{"-sample-every", "200ms", "-watch-every", "1s", "-watch-window", "500ms"},
			warning: "-watch-window holds too few samples for the growth, step and spike detectors to ever fire: window 500ms, -sample-every 200ms, want at least 1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, fs := boundFlags()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			warnings, err := cfg.validate()
			switch {
			case tc.refusal != "":
				if err == nil || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("validate = %v, want a refusal saying %q", err, tc.refusal)
				}
			case err != nil:
				t.Fatalf("validate refused: %v", err)
			case tc.wantNothing:
				if len(warnings) != 0 {
					t.Fatalf("validate warned %q", warnings)
				}
			case len(warnings) != 1 || warnings[0] != tc.warning:
				t.Fatalf("validate warned %q, want %q", warnings, tc.warning)
			}
		})
	}

	// What validate read out of -log-level is what the logger is set to.
	cfg, fs := boundFlags()
	if err := fs.Parse([]string{"-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.validate(); err != nil || cfg.level != slog.LevelDebug {
		t.Fatalf("-log-level debug: level %v, err %v", cfg.level, err)
	}
}
