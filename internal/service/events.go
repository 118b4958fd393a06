package service

import (
	"sync"
	"time"
)

// Event is one entry in a job's progress stream: a lifecycle transition
// (type "state") or the start of a synthesis phase (type "phase"). Events
// are the payload of GET /v1/jobs/{id}/events, both as SSE frames and as
// the long-poll JSON fallback. Seq is monotonically increasing per job and
// is the resume cursor: a client that reconnects passes the last seq it saw
// and receives only what it missed.
type Event struct {
	Seq    int64  `json:"seq"`
	TimeMS int64  `json:"time_ms"` // wall clock, Unix milliseconds
	Type   string `json:"type"`    // "state" or "phase"
	// Phase is a phase name reported through repair.Options.Phasef
	// ("compile", "step1", "step2", "thin", "witness", "verify") on phase
	// events.
	Phase string `json:"phase,omitempty"`
	// State is the job's new lifecycle state on state events.
	State State `json:"state,omitempty"`
	// Message carries detail: the error on failed/cancelled transitions,
	// "cache" when a done state was served without a synthesis.
	Message string `json:"message,omitempty"`
}

// eventLog is a job's append-only progress history plus a broadcast
// primitive: readers snapshot everything after a cursor and get a channel
// that closes on the next append. The log is bounded by construction — a
// job emits a handful of state events, at most two phase events per outer
// repair iteration (MaxOuterIterations caps those) and four more (compile,
// thin, witness, verify) — so it is never truncated and cursors stay valid
// for the job's lifetime.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	notify chan struct{} // closed and replaced on every append
	done   bool          // a terminal state event has been appended
}

func newEventLog() *eventLog {
	return &eventLog{notify: make(chan struct{})}
}

// append records one event, stamping seq and time, and wakes all waiters.
// terminal marks the log complete: streams end after delivering it.
func (l *eventLog) append(e Event, terminal bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return // the terminal event is final; late hooks are dropped
	}
	e.Seq = int64(len(l.events)) + 1
	e.TimeMS = time.Now().UnixMilli()
	l.events = append(l.events, e)
	l.done = terminal
	close(l.notify)
	l.notify = make(chan struct{})
}

func (l *eventLog) phase(name string) {
	l.append(Event{Type: "phase", Phase: name}, false)
}

func (l *eventLog) state(st State, msg string) {
	l.append(Event{Type: "state", State: st, Message: msg}, st.Terminal())
}

// after returns the events with Seq > cursor, whether the log is complete,
// and a channel that closes on the next append (valid only while no new
// events were returned — callers re-poll after it fires).
func (l *eventLog) after(cursor int64) (evs []Event, done bool, next <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if int(cursor) < len(l.events) {
		evs = append([]Event(nil), l.events[cursor:]...)
	}
	return evs, l.done, l.notify
}
