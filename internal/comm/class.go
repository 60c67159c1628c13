package comm

// SendClass labels which algorithm phase a send belongs to, for the
// per-phase words-moved breakdown in Report. Ranks carry a current
// class (set with Ctx.SetSendClass / Replay.SetSendClass); every send
// charges its words to the rank's class at the moment of the send, so
// relay hops inside a collective are attributed to the phase whose
// collective is running. The class affects accounting only — clocks,
// matching and critical-path costs are untouched.
type SendClass uint8

const (
	// SendOther is the default class: anything a program did not label.
	SendOther SendClass = iota
	// SendR2 is the diagonal-block broadcasts of region R2.
	SendR2
	// SendR3 is the row/column panel broadcasts of region R3.
	SendR3
	// SendR4Panel is the panel broadcasts to unit processors in R4.
	SendR4Panel
	// SendR4Reduce is the binomial reduction of unit products in R4.
	SendR4Reduce
	// SendR4Seq is the point-to-point panel sends of the sequential-R4
	// ablation strategy.
	SendR4Seq
	// SendTrans is the symmetry transposes (Algorithm 1, line 25).
	SendTrans

	// NumSendClasses is the number of distinct classes; sized for the
	// fixed WordsByClass array in Report.
	NumSendClasses = int(SendTrans) + 1
)

// sendClassNames indexes the short human-readable phase labels.
var sendClassNames = [NumSendClasses]string{
	"other", "r2", "r3", "r4-panel", "r4-reduce", "r4-seq", "trans",
}

// String returns the class's short phase label.
func (s SendClass) String() string {
	if int(s) < NumSendClasses {
		return sendClassNames[s]
	}
	return "invalid"
}

// SetSendClass sets the phase class charged by this rank's subsequent
// sends. Purely an accounting label; costs and matching are unaffected.
func (c *Ctx) SetSendClass(class SendClass) { c.machine.led.SetSendClass(c.rank, class) }

// SetSendClass sets the phase class charged by rank's subsequent
// ChargeSend calls. Same concurrency contract as the charge calls:
// issue it in the rank's program order.
func (r *Replay) SetSendClass(rank int, class SendClass) {
	r.states[rank].sendClass = class
}
