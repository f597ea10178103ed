// Package flowsteer models the NIC's reconfigurable match-action (RMT)
// flow engine. CEIO's flow controller installs one steering rule per flow
// at connection establishment and flips the rule's action between the fast
// path (DMA to host via DDIO) and the slow path (DMA to on-NIC memory)
// as credits are exhausted and replenished (§4.1). Rules carry hit
// counters, which the on-NIC cores poll to track credit consumption.
package flowsteer

// Action is the verdict a steering rule applies to a matching packet.
type Action uint8

const (
	// ActionFastPath DMAs the packet to host memory (legacy I/O).
	ActionFastPath Action = iota
	// ActionSlowPath DMAs the packet into on-NIC memory.
	ActionSlowPath
	// ActionDrop discards the packet (used for fault injection tests).
	ActionDrop
)

func (a Action) String() string {
	switch a {
	case ActionFastPath:
		return "fast"
	case ActionSlowPath:
		return "slow"
	default:
		return "drop"
	}
}

// Rule is one match-action entry. The match key is the flow ID (standing
// in for the 5-tuple/queue-pair match of real hardware).
type Rule struct {
	FlowID int
	Action Action
	// Hits counts matched packets since installation; HitBytes the bytes.
	Hits     uint64
	HitBytes uint64
}

// Table is the steering flow table. Lookup cost in real RMT hardware is
// constant; here the packet path holds its flow's *Rule, and the
// ID-keyed map serves only the control plane (install, uninstall,
// listing).
type Table struct {
	rules map[int]*Rule

	// Default is applied to packets with no matching rule.
	Default Action

	// Statistics.
	Lookups    uint64
	MissCount  uint64
	Updates    uint64
	Installs   uint64
	Uninstalls uint64
	// FailedUpdates counts Set attempts the simulated firmware
	// rejected under fault injection (the controller retries them with
	// backoff; see core's steering path).
	FailedUpdates uint64
}

// NewTable creates an empty steering table with ActionFastPath default.
func NewTable() *Table {
	return &Table{rules: make(map[int]*Rule), Default: ActionFastPath}
}

// Install adds a rule for flowID. Installing over an existing rule resets
// its counters (real hardware re-creates the entry).
func (t *Table) Install(flowID int, a Action) *Rule {
	r := &Rule{FlowID: flowID, Action: a}
	t.rules[flowID] = r
	t.Installs++
	return r
}

// Uninstall removes the rule for flowID if present.
func (t *Table) Uninstall(flowID int) {
	if _, ok := t.rules[flowID]; ok {
		delete(t.rules, flowID)
		t.Uninstalls++
	}
}

// Set updates the action of installed rule r, as the CEIO flow
// controller does through the rule Install returned when a flow exhausts
// its credits or its slow path drains.
func (t *Table) Set(r *Rule, a Action) {
	if r.Action != a {
		r.Action = a
		t.Updates++
	}
}

// UpdateFailed records a rule update the firmware rejected (fault
// injection); the table itself is unchanged.
func (t *Table) UpdateFailed() { t.FailedUpdates++ }

// Lookup matches a packet of size bytes against rule r (the rule
// Install returned for the packet's flow; nil when the flow has none)
// and returns the action, updating the rule's hit counters. The match
// itself is the caller holding the rule, as a hardware match-action
// stage resolves the match key to its entry in constant time.
func (t *Table) Lookup(r *Rule, size int) Action {
	t.Lookups++
	if r == nil {
		t.MissCount++
		return t.Default
	}
	r.Hits++
	r.HitBytes += uint64(size)
	return r.Action
}

// Rule returns the rule for flowID, or nil.
func (t *Table) Rule(flowID int) *Rule { return t.rules[flowID] }

// Action returns the current action for flowID (Default when absent)
// without counting a packet hit.
func (t *Table) Action(flowID int) Action {
	if r, ok := t.rules[flowID]; ok {
		return r.Action
	}
	return t.Default
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// FlowIDs returns all installed flow IDs (order unspecified).
func (t *Table) FlowIDs() []int {
	out := make([]int, 0, len(t.rules))
	for id := range t.rules {
		out = append(out, id)
	}
	return out
}
