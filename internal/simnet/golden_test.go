package simnet

// Call outcomes against goldens recorded at the commit before Fabric.Call
// became a single park with a lazily armed deadline (testdata/
// call_goldens.txt). Both changes promise that no call resolves with a
// different error class or at a different instant; the goldens hold the
// (class, instant) of every call of a table of hand-built cases and of
// 200 seeded random programs, as that commit produced them. The file is
// rewritten by SIMNET_UPDATE_GOLDENS=1 go test -run Golden, which only
// makes sense at a commit whose behaviour is the reference.

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

const goldenPath = "testdata/call_goldens.txt"

// errClass names the sentinel an error wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrNodeDown):
		return "nodedown"
	case errors.Is(err, ErrNoHandler):
		return "nohandler"
	case errors.Is(err, ErrNoSuchNode):
		return "nosuchnode"
	}
	return "other:" + err.Error()
}

// goldenFabric is nodes 1..n, each serving a fast echo, a blocking
// handler that works for 3 µs, a fast handler that declines to a
// blocking fallback, one that declines with no fallback, and one that
// declines to the fabric's staged handler, which serves it as the
// blocking handler does.
func goldenFabric(k *sim.Kernel, cfg Config, n int) *Fabric {
	f := New(k, cfg)
	f.HandleStaged(func(_ NodeID, req Message, cs *Call) func() sim.Wait {
		worked := false
		return func() sim.Wait {
			if !worked {
				worked = true
				return sim.After(3 * time.Microsecond)
			}
			cs.Reply(Message{Bytes: 2 * req.Bytes}, nil)
			return sim.Resume
		}
	})
	for id := NodeID(1); id <= NodeID(n); id++ {
		node := f.AddNode(id)
		node.HandleFast("fast", func(req Message) (Message, error) {
			return Message{Bytes: 2 * req.Bytes}, nil
		})
		node.Handle("blocking", func(p *sim.Proc, req Message) (Message, error) {
			p.Sleep(3 * time.Microsecond)
			return Message{Bytes: 2 * req.Bytes}, nil
		})
		node.HandleFast("declining", func(Message) (Message, error) { return Message{}, ErrWouldBlock })
		node.Handle("declining", func(p *sim.Proc, req Message) (Message, error) {
			p.Sleep(time.Microsecond)
			return Message{Bytes: req.Bytes}, nil
		})
		node.HandleFast("refusing", func(Message) (Message, error) { return Message{}, ErrWouldBlock })
		node.HandleFast("staged", func(Message) (Message, error) { return Message{}, ErrStaged })
	}
	return f
}

// goldenDeadline is one way a call gets (or does not get) a deadline.
type goldenDeadline struct {
	name     string
	fabric   time.Duration // Config.CallTimeout
	explicit time.Duration // d of callWithTimeout
}

const goldenD = 20 * time.Microsecond

var goldenDeadlines = []goldenDeadline{
	{"explicit", 0, goldenD},
	{"default", goldenD, 0},
	{"none", 0, 0},
	{"forced-none", goldenD, -1},
}

// goldenAction is something done to the fabric at an instant of the
// first call's life.
type goldenAction struct {
	name string
	do   func(f *Fabric, from, to NodeID)
}

func linkFault(lf LinkFault) func(*Fabric, NodeID, NodeID) {
	return func(f *Fabric, from, to NodeID) { f.SetLinkFault(from, to, lf) }
}

var goldenActions = []goldenAction{
	{"partition", linkFault(LinkFault{Partitioned: true})},
	{"drop", linkFault(LinkFault{DropProb: 0.5})},
	{"degrade12", linkFault(LinkFault{ExtraLatency: 12 * time.Microsecond})}, // reply lands past the deadline
	{"degrade25", linkFault(LinkFault{ExtraLatency: 25 * time.Microsecond})}, // so does the request
	{"down-src", func(f *Fabric, from, _ NodeID) { f.Node(from).SetDown(true) }},
	{"down-dst", func(f *Fabric, _, to NodeID) { f.Node(to).SetDown(true) }},
}

// With DefaultConfig a 128-byte request sent at 0 leaves after the 1 µs
// overhead, lands at 3.015 µs, and a fast 256-byte reply lands at
// 5.040 µs; a blocking handler replies 3 µs later.
var goldenInstants = []struct {
	name string
	at   sim.Time
}{
	{"before", -1},
	{"overhead", 500 * sim.Nanosecond},
	{"midflight", 2 * sim.Microsecond},
	{"midreply", 4 * sim.Microsecond},
}

// runGoldenCase makes two calls back to back (the second reuses the
// first's pooled state, with whatever the first left queued) and
// returns what each resolved to, plus the fabric's counters.
func runGoldenCase(seed int64, method string, from, to NodeID, dl goldenDeadline, act *goldenAction, at sim.Time) string {
	k := sim.NewKernel(seed)
	defer k.Close()
	cfg := DefaultConfig()
	cfg.CallTimeout = dl.fabric
	f := goldenFabric(k, cfg, 2)
	if act != nil {
		if at < 0 {
			act.do(f, from, to)
		} else {
			k.Schedule(at, func() { act.do(f, from, to) })
		}
	}
	var out []string
	k.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			_, err := f.callWithTimeout(p, from, to, method, Message{Bytes: 128}, dl.explicit)
			out = append(out, fmt.Sprintf("%s@%d", errClass(err), int64(p.Now())))
		}
	})
	k.Run()
	if len(out) != 2 {
		return fmt.Sprintf("hung after %v", out)
	}
	return fmt.Sprintf("%s %s calls=%d fast=%d timeouts=%d drops=%d", out[0], out[1],
		f.Calls.Value(), f.FastCalls.Value(), f.Timeouts.Value(), f.Drops.Value())
}

// goldenTable enumerates handler kind × same-node/cross-node × deadline
// kind × (no fault | fault or node failure × when it strikes).
func goldenTable(methods ...string) map[string]string {
	got := make(map[string]string)
	for _, method := range methods {
		for _, topo := range []struct {
			name     string
			from, to NodeID
		}{{"same", 1, 1}, {"cross", 1, 2}} {
			for _, dl := range goldenDeadlines {
				base := fmt.Sprintf("table/%s/%s/%s", method, topo.name, dl.name)
				got[base+"/clean"] = runGoldenCase(1, method, topo.from, topo.to, dl, nil, 0)
				for ai := range goldenActions {
					act := &goldenActions[ai]
					for _, when := range goldenInstants {
						seeds := []int64{1}
						if act.name == "drop" {
							seeds = []int64{1, 2, 3, 4} // the drop is a draw from the kernel RNG
						}
						for _, seed := range seeds {
							name := fmt.Sprintf("%s/%s-%s/seed%d", base, act.name, when.name, seed)
							got[name] = runGoldenCase(seed, method, topo.from, topo.to, dl, act, when.at)
						}
					}
				}
			}
		}
	}
	return got
}

// runGoldenProgram runs a random program — callers on four nodes making
// calls of every kind with every kind of deadline while a script
// partitions, degrades, heals, crashes and restarts things under them —
// and returns one line per call. slow is the method that works for 3 µs.
func runGoldenProgram(seed int64, slow string) []string {
	k := sim.NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	if rng.Intn(3) > 0 {
		cfg.CallTimeout = time.Duration(8+rng.Intn(30)) * time.Microsecond
	}
	const nodes = 4
	f := goldenFabric(k, cfg, nodes)
	methods := []string{"fast", "fast", "fast", slow, "declining", "refusing", "missing"}
	var lines []string
	for c, n := 0, 3+rng.Intn(4); c < n; c++ {
		c := c
		from := NodeID(1 + rng.Intn(nodes))
		crng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		k.Spawn(fmt.Sprintf("caller-%d", c), func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				to := NodeID(1 + crng.Intn(nodes))
				method := methods[crng.Intn(len(methods))]
				var d time.Duration
				switch crng.Intn(4) {
				case 0:
					d = -1
				case 1:
					d = time.Duration(4+crng.Intn(40)) * time.Microsecond
				}
				bytes := int64(64 << crng.Intn(8))
				_, err := f.callWithTimeout(p, from, to, method, Message{Bytes: bytes}, d)
				lines = append(lines, fmt.Sprintf("c%d.%d %d->%d %s d=%d %s@%d",
					c, i, from, to, method, d, errClass(err), int64(p.Now())))
				p.Sleep(time.Duration(crng.Intn(6000)) * time.Nanosecond)
			}
		})
	}
	for i, n := 0, 4+rng.Intn(10); i < n; i++ {
		at := sim.Time(rng.Intn(150_000))
		a, b := NodeID(1+rng.Intn(nodes)), NodeID(1+rng.Intn(nodes))
		switch rng.Intn(6) {
		case 0:
			k.Schedule(at, func() { f.SetLinkFault(a, b, LinkFault{Partitioned: true}) })
		case 1:
			lf := LinkFault{DropProb: 0.1 + 0.6*rng.Float64()}
			k.Schedule(at, func() { f.SetLinkFault(a, b, lf) })
		case 2:
			lf := LinkFault{ExtraLatency: time.Duration(rng.Intn(30_000)) * time.Nanosecond, DropProb: 0.2 * float64(rng.Intn(2))}
			k.Schedule(at, func() { f.SetLinkFault(a, b, lf) })
		case 3:
			k.Schedule(at, func() { f.ClearLinkFault(a, b) })
		default:
			k.Schedule(at, func() { f.Node(a).SetDown(true) })
			k.Schedule(at+sim.Time(1+rng.Intn(20_000)), func() { f.Node(a).SetDown(false) })
		}
	}
	k.Run()
	lines = append(lines, fmt.Sprintf("calls=%d fast=%d timeouts=%d drops=%d live=%d",
		f.Calls.Value(), f.FastCalls.Value(), f.Timeouts.Value(), f.Drops.Value(), k.Live()))
	return lines
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	fh, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("no goldens: %v", err)
	}
	defer fh.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGoldens(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%s\n", name, got[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCallOutcomes: every call of the table and of the 200 random
// programs resolves with the error class and at the instant the goldens
// recorded.
func TestGoldenCallOutcomes(t *testing.T) {
	got := goldenTable("fast", "blocking", "declining", "refusing")
	programs := make(map[string][]string)
	for seed := int64(1); seed <= 200; seed++ {
		name := fmt.Sprintf("program/seed%03d", seed)
		lines := runGoldenProgram(seed, "blocking")
		programs[name] = lines
		got[name] = fmt.Sprintf("%d lines sha256 %x", len(lines), sha256.Sum256([]byte(strings.Join(lines, "\n"))))
	}
	if os.Getenv("SIMNET_UPDATE_GOLDENS") != "" {
		writeGoldens(t, got)
		t.Logf("wrote %d goldens to %s", len(got), goldenPath)
		return
	}
	want := readGoldens(t)
	if len(want) != len(got) {
		t.Errorf("%d goldens on file, %d cases run", len(want), len(got))
	}
	bad := 0
	for name, w := range want {
		if g := got[name]; g != w {
			bad++
			if bad <= 10 {
				t.Errorf("%s:\n got  %s\n want %s", name, g, w)
				if lines := programs[name]; lines != nil {
					t.Logf("calls of %s:\n%s", name, strings.Join(lines, "\n"))
				}
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}

// TestStagedHandlerMatchesBlockingHandler: a request a fast handler
// declines to the fabric's staged handler, whose process is only stages,
// resolves exactly as one served by a blocking handler process doing the
// same work — in every case of the golden table and every call of the 200
// random programs, with deadlines that abandon the handler mid-work and
// nodes failing under it. Checked to fail with the staged branch of
// onDelivered not arming the deadline, or not pinning the Call.
func TestStagedHandlerMatchesBlockingHandler(t *testing.T) {
	got, want := goldenTable("staged"), goldenTable("blocking")
	for name, g := range got {
		if w := want[strings.Replace(name, "/staged/", "/blocking/", 1)]; g != w {
			t.Errorf("%s: %s; the blocking handler: %s", name, g, w)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		got, want := runGoldenProgram(seed, "staged"), runGoldenProgram(seed, "blocking")
		for i := range got {
			got[i] = strings.Replace(got[i], " staged ", " blocking ", 1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("program %d:\nstaged handler:\n%s\nblocking handler:\n%s", seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestGoldenTableCoversTheClasses guards the table against going
// degenerate: it must contain successes, timeouts at the deadline, node
// failures, immediate losses and handler refusals.
func TestGoldenTableCoversTheClasses(t *testing.T) {
	count := make(map[string]int)
	for _, v := range goldenTable("fast", "blocking", "declining", "refusing") {
		first, _, _ := strings.Cut(v, "@")
		count[first]++
	}
	for _, class := range []string{"ok", "timeout", "nodedown", "nohandler"} {
		if count[class] < 20 {
			t.Errorf("only %d table cases resolve their first call as %q", count[class], class)
		}
	}
}

// replyInstant returns when a clean call of method resolves.
func replyInstant(t *testing.T, method string, extra time.Duration, d time.Duration) (string, sim.Time) {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	f := goldenFabric(k, DefaultConfig(), 2)
	if extra > 0 {
		f.SetLinkFault(1, 2, LinkFault{ExtraLatency: extra})
	}
	var class string
	var at sim.Time
	k.Spawn("caller", func(p *sim.Proc) {
		_, err := f.callWithTimeout(p, 1, 2, method, Message{Bytes: 128}, d)
		class, at = errClass(err), p.Now()
	})
	k.Run()
	return class, at
}

// TestDeadlineWinsTheTieWithTheReply: on a link slowed so that the reply
// lands exactly on the deadline, the deadline — armed first — must
// still win, and one nanosecond less of delay lets the reply through.
func TestDeadlineWinsTheTieWithTheReply(t *testing.T) {
	const overhead = time.Microsecond // DefaultConfig().RPCOverhead
	for _, method := range []string{"fast", "blocking", "declining"} {
		_, clean := replyInstant(t, method, 0, -1)
		deadline := sim.Time(overhead + goldenD)
		// Each nanosecond of extra latency delays the reply by two.
		slack := deadline - clean
		if slack <= 0 || slack%2 != 0 {
			t.Fatalf("%s: clean reply at %v leaves odd slack %v to the deadline", method, clean, slack)
		}
		extra := time.Duration(slack / 2)
		if _, at := replyInstant(t, method, extra, -1); at != deadline {
			t.Fatalf("%s: with +%v the reply lands at %v, not on the deadline %v", method, extra, at, deadline)
		}
		if class, at := replyInstant(t, method, extra, goldenD); class != "timeout" || at != deadline {
			t.Errorf("%s: reply landing on the deadline resolved %s@%v, want timeout@%v", method, class, at, deadline)
		}
		if class, at := replyInstant(t, method, extra-1, goldenD); class != "ok" || at != deadline-2 {
			t.Errorf("%s: reply landing 2ns before the deadline resolved %s@%v, want ok@%v", method, class, at, deadline-2)
		}
	}
}

// TestDeadlineWinsTheTieWithTheRequest: the same for a request that
// reaches the destination exactly on the deadline — the handler must not
// see it resolve as a success.
func TestDeadlineWinsTheTieWithTheRequest(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := goldenFabric(k, DefaultConfig(), 2)
	var arrived sim.Time
	f.Node(2).HandleFast("stamp", func(Message) (Message, error) {
		arrived = k.Now()
		return Message{}, nil
	})
	// Clean arrival is at 3.015 µs; the deadline is at 1 µs + d.
	const d = 10 * time.Microsecond
	f.SetLinkFault(1, 2, LinkFault{ExtraLatency: 11*time.Microsecond - 3015*time.Nanosecond})
	var class string
	var at sim.Time
	k.Spawn("caller", func(p *sim.Proc) {
		_, err := f.callWithTimeout(p, 1, 2, "stamp", Message{Bytes: 128}, d)
		class, at = errClass(err), p.Now()
	})
	k.Run()
	if class != "timeout" || at != 11*sim.Microsecond {
		t.Fatalf("resolved %s@%v, want timeout@11µs", class, at)
	}
	if arrived != 0 {
		t.Fatalf("handler ran at %v for a call that had already timed out", arrived)
	}
}
