package netd

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
)

// The liveness plane on virtual time: a manual clock shared by every
// server of a test, which moves only when the test advances it.

// defaults is the Config a server runs with when nothing is set. Tests on a
// manual clock run the liveness plane at this production timing: a tick, a
// heartbeat or a grace costs them no wall time.
var (
	defaults = Config{}.withDefaults()
	tick     = defaults.HeartbeatInterval / 2 // the sweeper's period
)

// virtualCfg is quickCfg's call and dial timeouts, which stay on the real
// clock, with the liveness fields left at their defaults.
func virtualCfg() Config {
	cfg := quickCfg()
	cfg.HeartbeatInterval, cfg.LeaseGrace = 0, 0
	return cfg
}

// manualClock is a clock that stands still until Advance moves it. A
// server started on it (start) ticks when Advance calls the tick its
// sweeper registered, every period from its start, on Advance's goroutine:
// when Advance returns, every tick it crossed has finished, actions
// performed. One goroutine advances it at a time.
type manualClock struct {
	mu      sync.Mutex
	t       time.Time
	tickers []*manualTicker
	added   chan struct{} // every has listed a sweeper's ticker
}

type manualTicker struct {
	period time.Duration
	next   time.Time
	stop   <-chan struct{}
	tick   func()
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2030, time.January, 1, 0, 0, 0, 0, time.UTC), added: make(chan struct{})}
}

func (k *manualClock) now() time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.t
}

// every lists the ticker and waits for stop: the ticks are Advance's.
func (k *manualClock) every(d time.Duration, stop <-chan struct{}, tick func()) {
	k.mu.Lock()
	k.tickers = append(k.tickers, &manualTicker{period: d, next: k.t.Add(d), stop: stop, tick: tick})
	k.mu.Unlock()
	k.added <- struct{}{}
	<-stop
}

// start is Start on k. It returns once the server's ticker is listed: its
// first tick is one period from now.
func (k *manualClock) start(dom *kernel.Domain, addr string, opts ...Option) (*Server, error) {
	s, err := start(dom, addr, clock{now: k.now, every: k.every}, opts...)
	if err == nil {
		<-k.added
	}
	return s, err
}

// machine is a machine on k with virtualCfg.
func (k *manualClock) machine(t *testing.T, name string, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	return newMachineOn(t, k, name, "127.0.0.1:0", virtualCfg(), libs...)
}

// Advance moves the clock d on, delivering every tick it crosses in time
// order; ticks at one instant go in the order the servers started. A
// closed server's ticks are dropped.
func (k *manualClock) Advance(d time.Duration) {
	k.mu.Lock()
	end := k.t.Add(d)
	for {
		var due []*manualTicker
		for _, tk := range k.tickers {
			switch {
			case tk.next.After(end):
			case len(due) == 0 || tk.next.Before(due[0].next):
				due = append(due[:0], tk)
			case tk.next.Equal(due[0].next):
				due = append(due, tk)
			}
		}
		if len(due) == 0 {
			break
		}
		k.t = due[0].next
		for _, tk := range due {
			tk.next = tk.next.Add(tk.period)
		}
		k.mu.Unlock()
		for _, tk := range due {
			select {
			case <-tk.stop:
			default:
				tk.tick()
			}
		}
		k.mu.Lock()
	}
	k.t = end
	k.mu.Unlock()
}

// until waits, yielding, for what sockets and goroutines do at once — a
// peer's close seen, a frame read, a notification delivered — never for a
// timer: the real-time bound only turns a hang into a failure.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

// connsOf is s's live connection count.
func connsOf(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.allConns)
}

// heard reports whether every live connection of the servers has heard its
// peer within a heartbeat and a tick of the last one, or since: on an idle
// session, what the pings of a healthy peer make true.
func heard(servers ...*Server) bool {
	for _, s := range servers {
		s.mu.Lock()
		for c := range s.allConns {
			if !c.isDead() && !c.recvd.Load() && c.recvAt != 0 &&
				time.Duration(s.clk.now().UnixNano()-c.recvAt) > defaults.HeartbeatInterval+tick {
				s.mu.Unlock()
				return false
			}
		}
		s.mu.Unlock()
	}
	return true
}

// idle advances k n ticks, one at a time, waiting after each until the
// servers' pings have landed (heard): the network keeps up with virtual
// time, as it does with real time at a heartbeat's pace.
func (k *manualClock) idle(t *testing.T, n int, servers ...*Server) {
	t.Helper()
	for range n {
		k.Advance(tick)
		until(t, "pings land", func() bool { return heard(servers...) })
	}
}

// counted is a reading of the liveness plane's tallies, by gauge name.
type counted map[string]int64

var tallyNames = []string{"netd.leases_expired", "netd.refs_reclaimed", "netd.breaker_opened",
	"netd.breaker_closed", "netd.releases_replayed", "netd.releases_queued", "netd.exports_live", "netd.sessions_live"}

func countNow() counted {
	c := counted{}
	for _, name := range tallyNames {
		c[name] = scstats.GaugeFor(name).Value()
	}
	return c
}

// moved fails the test unless every tally moved since c by exactly what
// want says, and those it does not name not at all.
func (c counted) moved(t *testing.T, when string, want counted) {
	t.Helper()
	for _, name := range tallyNames {
		if d := scstats.GaugeFor(name).Value() - c[name]; d != want[name] {
			t.Errorf("%s: %s moved %+d, want %+d", when, name, d, want[name])
		}
	}
}
