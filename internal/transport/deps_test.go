package transport

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLinksNoSimulator: the simulator depends on this package's
// Addr and Message, never the reverse, so neither the daemon nor its
// client links internal/simnet. The check reads what the go tool would
// link, not what a package imports directly.
func TestDaemonLinksNoSimulator(t *testing.T) {
	const simnet = "sariadne/internal/simnet"
	for _, cmd := range []string{"sariadne/cmd/sdpd", "sariadne/cmd/sdpctl"} {
		out, err := exec.Command("go", "list", "-deps", cmd).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", cmd, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 || deps[len(deps)-1] != cmd {
			t.Fatalf("go list -deps %s listed %d packages, not ending in the command", cmd, len(deps))
		}
		for _, dep := range deps {
			if dep == simnet {
				t.Errorf("%s links %s", cmd, simnet)
			}
		}
	}
}
