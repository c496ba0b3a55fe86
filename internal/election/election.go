// Package election implements S-Ariadne's on-the-fly directory deployment
// (Section 4 of the paper): nodes that hear no directory advertisement for
// a while initiate an election in their vicinity; nodes answer with their
// candidacy — scored by network coverage, mobility and remaining resources
// — and the best candidate is appointed and starts advertising as a
// directory. The mechanism keeps directories homogeneously distributed,
// since elections trigger exactly in the areas no directory covers.
//
// The protocol logic lives in Machine, a pure state machine: messages and
// clock ticks go in, actions (sends, broadcasts, role changes) come out.
// That keeps every protocol decision deterministic and unit-testable.
// discovery.Node drives a Machine over a transport endpoint (the
// simulator or a real socket) with real timers.
package election

import (
	"fmt"
	"time"

	"sariadne/internal/transport"
)

// Role is a node's current protocol role.
type Role int

// Roles.
const (
	// Member nodes rely on a nearby directory.
	Member Role = iota + 1
	// Initiator nodes are running an election they started.
	Initiator
	// Directory nodes host a service directory and advertise it.
	Directory
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Member:
		return "member"
	case Initiator:
		return "initiator"
	case Directory:
		return "directory"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Score is a node's directory candidacy: the paper elects nodes on network
// coverage, mobility and remaining/available resources.
type Score struct {
	// Coverage is the number of neighbors within advertisement range.
	Coverage int
	// Resources is remaining battery/CPU headroom in [0, 1].
	Resources float64
	// Mobility is expected movement in [0, 1]; lower is better.
	Mobility float64
	// Willing is false for nodes that refuse to act as a directory.
	Willing bool
}

// Value folds the score into a single comparable number; higher wins.
func (s Score) Value() float64 {
	if !s.Willing {
		return -1
	}
	return float64(s.Coverage) + 2*s.Resources - s.Mobility
}

// Config parameterizes the protocol.
type Config struct {
	// AdvertiseInterval is how often a directory re-advertises its
	// presence in the vicinity.
	AdvertiseInterval time.Duration
	// AdvertiseTTL is the hop radius of advertisements and elections
	// (the paper's vicinity).
	AdvertiseTTL int
	// ElectionTimeout is how long a member waits without hearing any
	// directory advertisement before initiating an election.
	ElectionTimeout time.Duration
	// CandidacyWait is how long an initiator collects candidacies before
	// appointing the winner.
	CandidacyWait time.Duration
	// Score reports this node's current candidacy when asked.
	Score func() Score
}

func (c Config) withDefaults() Config {
	if c.AdvertiseInterval <= 0 {
		c.AdvertiseInterval = 2 * time.Second
	}
	if c.AdvertiseTTL <= 0 {
		c.AdvertiseTTL = 2
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 3 * c.AdvertiseInterval
	}
	if c.CandidacyWait <= 0 {
		c.CandidacyWait = c.AdvertiseInterval / 2
	}
	if c.Score == nil {
		c.Score = func() Score { return Score{Coverage: 1, Resources: 0.5, Willing: true} }
	}
	return c
}

// Protocol messages. They are exported so transports can route them.

// Advertisement announces a live directory to its vicinity.
type Advertisement struct {
	Directory transport.Addr
}

// Call opens an election run by Initiator.
type Call struct {
	Initiator transport.Addr
	Election  uint64
}

// Candidacy answers a Call with the sender's score.
type Candidacy struct {
	Initiator transport.Addr
	Election  uint64
	Candidate transport.Addr
	Score     Score
}

// Appointment closes an election, naming the winner.
type Appointment struct {
	Initiator transport.Addr
	Election  uint64
	Winner    transport.Addr
}

// Actions returned by the machine.

// SendAction asks the transport to unicast a payload.
type SendAction struct {
	To      transport.Addr
	Payload any
}

// BroadcastAction asks the transport to flood a payload in the vicinity.
type BroadcastAction struct {
	TTL     int
	Payload any
}

// RoleChange reports that the node's role changed (for observers).
type RoleChange struct {
	Role Role
}

// Machine is the deterministic election state machine for one node. It is
// not safe for concurrent use; discovery.Node serializes access.
type Machine struct {
	self transport.Addr
	cfg  Config

	role          Role
	directory     transport.Addr
	lastAdvert    time.Time
	lastSelfAdv   time.Time
	electionID    uint64
	electionOpen  bool
	electionStart time.Time
	best          Candidacy
	seenCalls     map[string]struct{}
	timeoutJitter time.Duration
}

// NewMachine returns a Member machine for the given node. The now argument
// anchors the advertisement timeout clock.
func NewMachine(self transport.Addr, cfg Config, now time.Time) *Machine {
	m := &Machine{
		self:       self,
		cfg:        cfg.withDefaults(),
		role:       Member,
		lastAdvert: now,
		seenCalls:  make(map[string]struct{}),
	}
	// Deterministic per-node jitter (0–50% of the timeout) desynchronizes
	// members that lost their directory at the same instant.
	var h uint64 = 14695981039346656037
	for _, b := range []byte(self) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	m.timeoutJitter = time.Duration(h % uint64(m.cfg.ElectionTimeout/2+1))
	return m
}

// Self returns the node ID the machine runs on.
func (m *Machine) Self() transport.Addr { return m.self }

// Role returns the current role.
func (m *Machine) Role() Role { return m.role }

// Directory returns the directory this node currently uses: itself when it
// is a directory, the last advertised one otherwise.
func (m *Machine) Directory() (transport.Addr, bool) {
	if m.role == Directory {
		return m.self, true
	}
	if m.directory == "" {
		return "", false
	}
	return m.directory, true
}

// BecomeDirectory forces the directory role (used for statically deployed
// directories and in tests). It returns the initial advertisement action.
func (m *Machine) BecomeDirectory(now time.Time) []any {
	m.role = Directory
	m.directory = m.self
	m.lastSelfAdv = now
	return []any{
		RoleChange{Role: Directory},
		BroadcastAction{TTL: m.cfg.AdvertiseTTL, Payload: Advertisement{Directory: m.self}},
	}
}

// Demote returns a Directory machine to Member (graceful shutdown of the
// directory role); the advertisement-timeout clock restarts at now so the
// node does not immediately self-elect while another directory takes over.
func (m *Machine) Demote(now time.Time) []any {
	if m.role != Directory {
		return nil
	}
	m.role = Member
	m.directory = ""
	m.lastAdvert = now
	return []any{RoleChange{Role: Member}}
}

// HandleMessage feeds one received protocol message into the machine and
// returns the actions to execute. Non-election payloads yield nil.
func (m *Machine) HandleMessage(from transport.Addr, payload any, now time.Time) []any {
	switch p := payload.(type) {
	case Advertisement:
		return m.onAdvertisement(p, now)
	case Call:
		return m.onCall(p, now)
	case Candidacy:
		return m.onCandidacy(p, now)
	case Appointment:
		return m.onAppointment(p, now)
	default:
		return nil
	}
}

// Tick advances the machine's timers and returns due actions.
func (m *Machine) Tick(now time.Time) []any {
	var actions []any
	switch m.role {
	case Directory:
		if now.Sub(m.lastSelfAdv) >= m.cfg.AdvertiseInterval {
			m.lastSelfAdv = now
			actions = append(actions, BroadcastAction{
				TTL:     m.cfg.AdvertiseTTL,
				Payload: Advertisement{Directory: m.self},
			})
		}
	case Initiator:
		if m.electionOpen && now.Sub(m.electionStart) >= m.cfg.CandidacyWait {
			actions = append(actions, m.closeElection(now)...)
		}
	case Member:
		if now.Sub(m.lastAdvert) >= m.cfg.ElectionTimeout+m.timeoutJitter {
			actions = append(actions, m.openElection(now)...)
		}
	}
	return actions
}

func (m *Machine) onAdvertisement(adv Advertisement, now time.Time) []any {
	if m.role == Directory {
		// Two directories covering each other's vicinity is tolerated by
		// the paper's homogeneous deployment; no action.
		return nil
	}
	// Stickiness: with overlapping vicinities a member keeps its current
	// directory while it stays live, and only adopts another one when the
	// current one has gone silent — otherwise nodes between two
	// directories would flap (re-publishing on every flip).
	switch {
	case m.directory == "" || m.directory == adv.Directory:
		m.directory = adv.Directory
		m.lastAdvert = now
	case now.Sub(m.lastAdvert) > 2*m.cfg.AdvertiseInterval:
		m.directory = adv.Directory
		m.lastAdvert = now
	default:
		return nil // foreign directory; ours is still live
	}
	if m.role == Initiator {
		// A directory appeared while electing: abort the election.
		m.role = Member
		m.electionOpen = false
		return []any{RoleChange{Role: Member}}
	}
	return nil
}

func (m *Machine) onCall(call Call, now time.Time) []any {
	key := fmt.Sprintf("%s/%d", call.Initiator, call.Election)
	if _, seen := m.seenCalls[key]; seen {
		return nil
	}
	m.seenCalls[key] = struct{}{}
	if call.Initiator == m.self {
		return nil
	}
	if m.role == Directory {
		// An existing directory answers a call by re-advertising: the area
		// is already covered.
		return []any{BroadcastAction{TTL: m.cfg.AdvertiseTTL, Payload: Advertisement{Directory: m.self}}}
	}
	score := m.cfg.Score()
	if !score.Willing {
		return nil // refusal: stay silent
	}
	// Concurrent elections tie-break bully-style on node ID: an initiator
	// keeps its own election when it outranks the caller (and stays
	// silent), and yields and answers otherwise. Without this, two
	// simultaneous initiators suppress each other and no election closes.
	if m.role == Initiator {
		if m.self < call.Initiator {
			return nil
		}
		m.role = Member
		m.electionOpen = false
	}
	// Receiving a call also counts as recent coverage activity, so we do
	// not immediately start a competing election.
	m.lastAdvert = now
	return []any{SendAction{To: call.Initiator, Payload: Candidacy{
		Initiator: call.Initiator,
		Election:  call.Election,
		Candidate: m.self,
		Score:     score,
	}}}
}

func (m *Machine) onCandidacy(c Candidacy, _ time.Time) []any {
	if !m.electionOpen || c.Initiator != m.self || c.Election != m.electionID {
		return nil
	}
	if better(c, m.best) {
		m.best = c
	}
	return nil
}

func (m *Machine) onAppointment(a Appointment, now time.Time) []any {
	if a.Winner == m.self && m.role != Directory {
		return m.BecomeDirectory(now)
	}
	if a.Winner != m.self {
		m.directory = a.Winner
		m.lastAdvert = now
		if m.role == Initiator {
			m.role = Member
			m.electionOpen = false
			return []any{RoleChange{Role: Member}}
		}
	}
	return nil
}

func (m *Machine) openElection(now time.Time) []any {
	m.role = Initiator
	m.electionID++
	m.electionOpen = true
	m.electionStart = now
	self := m.cfg.Score()
	m.best = Candidacy{Initiator: m.self, Election: m.electionID, Candidate: m.self, Score: self}
	if !self.Willing {
		m.best.Candidate = "" // we cannot win ourselves
	}
	return []any{
		RoleChange{Role: Initiator},
		BroadcastAction{TTL: m.cfg.AdvertiseTTL, Payload: Call{Initiator: m.self, Election: m.electionID}},
	}
}

func (m *Machine) closeElection(now time.Time) []any {
	m.electionOpen = false
	winner := m.best.Candidate
	if winner == "" {
		// Nobody (including us) was willing; return to Member and let the
		// timeout fire again later.
		m.role = Member
		m.lastAdvert = now
		return []any{RoleChange{Role: Member}}
	}
	actions := []any{BroadcastAction{TTL: m.cfg.AdvertiseTTL, Payload: Appointment{
		Initiator: m.self,
		Election:  m.electionID,
		Winner:    winner,
	}}}
	if winner == m.self {
		actions = append(actions, m.BecomeDirectory(now)...)
	} else {
		m.role = Member
		m.directory = winner
		m.lastAdvert = now
		actions = append(actions, RoleChange{Role: Member})
	}
	return actions
}

// better orders candidacies by score value, breaking ties by node ID so
// every initiator picks the same winner.
func better(a, b Candidacy) bool {
	if b.Candidate == "" {
		return a.Candidate != ""
	}
	av, bv := a.Score.Value(), b.Score.Value()
	if av != bv {
		return av > bv
	}
	return a.Candidate < b.Candidate
}
