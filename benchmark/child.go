package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A child is a process the benchmark forked: the springfsd under test or
// the floor peer. Each runs in its own process group, its combined output
// is kept so a failure can show it, and every one is registered so that
// no exit path of the benchmark leaves it running.
type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for

	mu    sync.Mutex
	out   bytes.Buffer
	lines chan string // output lines, for waiting on a start-up banner
}

var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// startChild forks bin in its own process group with stdout and stderr
// captured.
func startChild(name, bin string, extra []*os.File, args ...string) (*child, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c := &child{
		name: name,
		cmd:  exec.Command(bin, args...),
		done: make(chan struct{}),
		// Room for a start-up banner; later lines are only kept in out.
		lines: make(chan string, 64),
	}
	c.cmd.Stdout, c.cmd.Stderr = w, w
	c.cmd.ExtraFiles = extra
	// Setpgid lets stop signal the whole group; Pdeathsig covers the one
	// exit path no handler can: the benchmark itself being SIGKILLed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	w.Close()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()

	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer r.Close()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.out.WriteString(line)
			c.out.WriteByte('\n')
			c.mu.Unlock()
			select {
			case c.lines <- line:
			default:
			}
		}
	}()
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child says nothing
		<-copied
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// output returns everything the child has printed so far.
func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// exited reports whether the process has already ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// awaitLine returns the text after marker in the first output line that
// contains it, failing with the child's output if the child exits or
// timeout passes first.
func (c *child) awaitLine(marker string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line := <-c.lines:
			if _, rest, ok := strings.Cut(line, marker); ok {
				return rest, nil
			}
		case <-c.done:
			return "", fmt.Errorf("%s exited before printing %q; its output:\n%s", c.name, marker, c.output())
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %v; its output:\n%s", c.name, marker, timeout, c.output())
		}
	}
}

// stop kills the child's process group and waits until it has ended.
func (c *child) stop() {
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// stopAllChildren stops every child still registered.
func stopAllChildren() {
	children.Lock()
	var cs []*child
	for c := range children.live {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// cleanUpOnSignal makes an interrupted benchmark take its children and
// scratch directory with it: cleanup runs, then the process exits.
func cleanUpOnSignal(cleanup func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		cleanup()
		fmt.Fprintf(os.Stderr, "benchmark: %v: children stopped, exiting\n", s)
		os.Exit(130)
	}()
}
