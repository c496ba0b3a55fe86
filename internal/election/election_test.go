package election

import (
	"testing"
	"time"
)

// testConfig returns a config with fast, deterministic-friendly timers.
func testConfig(score Score) Config {
	return Config{
		AdvertiseInterval: 20 * time.Millisecond,
		AdvertiseTTL:      2,
		ElectionTimeout:   60 * time.Millisecond,
		CandidacyWait:     20 * time.Millisecond,
		Score:             func() Score { return score },
	}
}

func at(ms int) time.Time {
	return time.Unix(0, int64(ms)*int64(time.Millisecond))
}

func TestScoreValue(t *testing.T) {
	unwilling := Score{Coverage: 100, Resources: 1, Willing: false}
	if unwilling.Value() >= 0 {
		t.Fatal("unwilling candidate must have negative value")
	}
	strong := Score{Coverage: 5, Resources: 1, Mobility: 0, Willing: true}
	weak := Score{Coverage: 5, Resources: 0.1, Mobility: 0.9, Willing: true}
	if strong.Value() <= weak.Value() {
		t.Fatal("score ordering wrong")
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{Member: "member", Initiator: "initiator", Directory: "directory", Role(9): "Role(9)"} {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %q", int(r), r.String())
		}
	}
}

func TestMachineTimeoutOpensElection(t *testing.T) {
	cfg := testConfig(Score{Coverage: 1, Resources: 0.5, Willing: true})
	m := NewMachine("n0", cfg, at(0))
	if m.Role() != Member {
		t.Fatal("fresh machine not Member")
	}
	if acts := m.Tick(at(10)); len(acts) != 0 {
		t.Fatalf("premature actions: %v", acts)
	}
	acts := m.Tick(at(100))
	if m.Role() != Initiator {
		t.Fatalf("role = %v after timeout", m.Role())
	}
	var call *Call
	for _, a := range acts {
		if b, ok := a.(BroadcastAction); ok {
			if c, ok := b.Payload.(Call); ok {
				call = &c
			}
		}
	}
	if call == nil {
		t.Fatalf("no Call broadcast in %v", acts)
	}
}

func TestMachineElectsSelfWithoutCompetition(t *testing.T) {
	cfg := testConfig(Score{Coverage: 1, Resources: 0.5, Willing: true})
	m := NewMachine("n0", cfg, at(0))
	m.Tick(at(100)) // open election
	acts := m.Tick(at(200))
	if m.Role() != Directory {
		t.Fatalf("role = %v, want Directory", m.Role())
	}
	foundAppointment := false
	for _, a := range acts {
		if b, ok := a.(BroadcastAction); ok {
			if ap, ok := b.Payload.(Appointment); ok {
				foundAppointment = true
				if ap.Winner != "n0" {
					t.Fatalf("winner = %s", ap.Winner)
				}
			}
		}
	}
	if !foundAppointment {
		t.Fatalf("no appointment in %v", acts)
	}
	if dir, ok := m.Directory(); !ok || dir != "n0" {
		t.Fatalf("Directory = %s, %v", dir, ok)
	}
}

func TestMachinePicksBestCandidate(t *testing.T) {
	cfg := testConfig(Score{Coverage: 1, Resources: 0.2, Willing: true})
	m := NewMachine("n0", cfg, at(0))
	m.Tick(at(100)) // open election
	m.HandleMessage("n1", Candidacy{
		Initiator: "n0", Election: 1, Candidate: "n1",
		Score: Score{Coverage: 9, Resources: 0.9, Willing: true},
	}, at(110))
	m.HandleMessage("n2", Candidacy{
		Initiator: "n0", Election: 1, Candidate: "n2",
		Score: Score{Coverage: 2, Resources: 0.5, Willing: true},
	}, at(111))
	// Stale candidacy for a different election is ignored.
	m.HandleMessage("n9", Candidacy{
		Initiator: "n0", Election: 99, Candidate: "n9",
		Score: Score{Coverage: 100, Resources: 1, Willing: true},
	}, at(112))
	acts := m.Tick(at(200))
	if m.Role() != Member {
		t.Fatalf("role = %v, want Member (lost election)", m.Role())
	}
	for _, a := range acts {
		if b, ok := a.(BroadcastAction); ok {
			if ap, ok := b.Payload.(Appointment); ok {
				if ap.Winner != "n1" {
					t.Fatalf("winner = %s, want n1", ap.Winner)
				}
				if dir, ok := m.Directory(); !ok || dir != "n1" {
					t.Fatalf("Directory = %s, %v", dir, ok)
				}
				return
			}
		}
	}
	t.Fatalf("no appointment in %v", acts)
}

func TestMachineAnswersCallOnce(t *testing.T) {
	cfg := testConfig(Score{Coverage: 3, Resources: 0.7, Willing: true})
	m := NewMachine("n5", cfg, at(0))
	acts := m.HandleMessage("n0", Call{Initiator: "n0", Election: 1}, at(10))
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
	send, ok := acts[0].(SendAction)
	if !ok || send.To != "n0" {
		t.Fatalf("action = %v", acts[0])
	}
	cand, ok := send.Payload.(Candidacy)
	if !ok || cand.Candidate != "n5" || cand.Election != 1 {
		t.Fatalf("candidacy = %+v", cand)
	}
	// Duplicate call (flooding re-delivery) is ignored.
	if acts := m.HandleMessage("n0", Call{Initiator: "n0", Election: 1}, at(11)); len(acts) != 0 {
		t.Fatalf("duplicate call answered: %v", acts)
	}
}

func TestUnwillingNodeStaysSilent(t *testing.T) {
	cfg := testConfig(Score{Willing: false})
	m := NewMachine("n5", cfg, at(0))
	if acts := m.HandleMessage("n0", Call{Initiator: "n0", Election: 1}, at(10)); len(acts) != 0 {
		t.Fatalf("unwilling node answered: %v", acts)
	}
	// An unwilling initiator with no candidates returns to Member.
	m2 := NewMachine("n6", cfg, at(0))
	m2.Tick(at(100))
	m2.Tick(at(200))
	if m2.Role() != Member {
		t.Fatalf("role = %v, want Member", m2.Role())
	}
}

func TestAdvertisementSuppressesElection(t *testing.T) {
	cfg := testConfig(Score{Coverage: 1, Resources: 0.5, Willing: true})
	m := NewMachine("n0", cfg, at(0))
	m.HandleMessage("d1", Advertisement{Directory: "d1"}, at(50))
	if acts := m.Tick(at(100)); len(acts) != 0 {
		t.Fatalf("election started despite advertisement: %v", acts)
	}
	if dir, ok := m.Directory(); !ok || dir != "d1" {
		t.Fatalf("Directory = %s, %v", dir, ok)
	}
	// Advertisement during an election aborts it.
	m.Tick(at(200))
	if m.Role() != Initiator {
		t.Fatalf("role = %v", m.Role())
	}
	m.HandleMessage("d2", Advertisement{Directory: "d2"}, at(210))
	if m.Role() != Member {
		t.Fatalf("role = %v after advertisement, want Member", m.Role())
	}
}

func TestDirectoryAdvertisesPeriodically(t *testing.T) {
	cfg := testConfig(Score{Coverage: 1, Resources: 0.5, Willing: true})
	m := NewMachine("n0", cfg, at(0))
	m.BecomeDirectory(at(0))
	if acts := m.Tick(at(5)); len(acts) != 0 {
		t.Fatalf("advertised too soon: %v", acts)
	}
	acts := m.Tick(at(25))
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
	b, ok := acts[0].(BroadcastAction)
	if !ok {
		t.Fatalf("action = %v", acts[0])
	}
	if adv, ok := b.Payload.(Advertisement); !ok || adv.Directory != "n0" {
		t.Fatalf("payload = %v", b.Payload)
	}
	// A directory answers election calls by re-advertising.
	acts = m.HandleMessage("n9", Call{Initiator: "n9", Election: 4}, at(30))
	if len(acts) != 1 {
		t.Fatalf("directory call response = %v", acts)
	}
	if _, ok := acts[0].(BroadcastAction); !ok {
		t.Fatalf("directory response = %v", acts[0])
	}
}

func TestAppointmentPromotesWinner(t *testing.T) {
	cfg := testConfig(Score{Coverage: 2, Resources: 0.5, Willing: true})
	m := NewMachine("n3", cfg, at(0))
	acts := m.HandleMessage("n0", Appointment{Initiator: "n0", Election: 1, Winner: "n3"}, at(10))
	if m.Role() != Directory {
		t.Fatalf("role = %v, want Directory", m.Role())
	}
	if len(acts) == 0 {
		t.Fatal("no announcement actions")
	}
	// Losing nodes record the winner.
	m2 := NewMachine("n4", cfg, at(0))
	m2.HandleMessage("n0", Appointment{Initiator: "n0", Election: 1, Winner: "n3"}, at(10))
	if dir, ok := m2.Directory(); !ok || dir != "n3" {
		t.Fatalf("Directory = %s, %v", dir, ok)
	}
}

func TestCallSuppressesCompetingInitiator(t *testing.T) {
	cfg := testConfig(Score{Coverage: 2, Resources: 0.5, Willing: true})
	m := NewMachine("n7", cfg, at(0))
	m.Tick(at(100))
	if m.Role() != Initiator {
		t.Fatal("setup failed")
	}
	acts := m.HandleMessage("n1", Call{Initiator: "n1", Election: 3}, at(110))
	if m.Role() != Member {
		t.Fatalf("role = %v, want Member (yielded)", m.Role())
	}
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
}
