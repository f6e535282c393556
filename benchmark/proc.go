package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc: stat for pid %d: %w", pid, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procThreadsCPU sums the run time of every live thread of a process
// from /proc/<pid>/task/*/schedstat, in nanoseconds. Unlike procCPU it is
// exact, so it can time phases of a few milliseconds; it misses threads
// that have already exited, which a Go server does not do while running.
func procThreadsCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("proc: empty schedstat for %s/%s", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc: schedstat: %w", err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// procPeakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("proc: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no VmHWM in %s", path)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// server is one running `bellamy serve` child process. Its standard
// output (the structured log) is kept for the checks that read it.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time

	mu    sync.Mutex
	lines []string

	exited chan struct{}
	err    error
}

var addrRE = regexp.MustCompile(`msg="serving models".* addr=(\S+)`)

// startServer launches `bellamy serve` with args plus a loopback
// listener on an ephemeral port, and waits until it logs its address.
func startServer(bin string, args []string) (*server, error) {
	s := &server{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = os.Stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bellamy serve: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.lines = append(s.lines, line)
			s.mu.Unlock()
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("bellamy serve exited before listening: %v", s.err)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("bellamy serve did not listen within 60s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// logLines returns a copy of the lines logged so far.
func (s *server) logLines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...)
}

// stop sends SIGTERM and waits for the process to exit, returning the
// time from the signal to the exit. A server that does not exit within
// a minute is killed and reported as an error.
func (s *server) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return 0, fmt.Errorf("bellamy serve did not drain within 60s")
	}
	d := time.Since(t0)
	if s.err != nil {
		return d, fmt.Errorf("bellamy serve exited with %v", s.err)
	}
	return d, nil
}

// exitCPU is the user+system CPU time the process used over its whole
// life; it is known once the process has exited.
func (s *server) exitCPU() time.Duration {
	ps := s.cmd.ProcessState
	return ps.UserTime() + ps.SystemTime()
}

// kill ends the process at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}
