package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark compiles; it is git-ignored.
const buildDir = ".bench_build/bin"

// binaries are the three programs the driver runs. Only CLI flags, HTTP
// and the JSON they print are the contract between them and the driver.
type binaries struct {
	serve, oracle, ladder string
}

// buildBinaries compiles the server under test and the two in-process
// helpers from the checkout the driver was started in. A ladder that no
// longer compiles (its job is to pin leaf-package APIs) is reported but
// does not stop the end-to-end run.
func buildBinaries() (binaries, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return binaries{}, err
	}
	b := binaries{
		serve:  filepath.Join(buildDir, "aquoman-serve"),
		oracle: filepath.Join(buildDir, "oracle"),
		ladder: filepath.Join(buildDir, "ladder"),
	}
	for _, t := range []struct{ out, pkg string }{
		{b.serve, "./cmd/aquoman-serve"},
		{b.oracle, "./benchmark/oracle"},
	} {
		if out, err := exec.Command("go", "build", "-o", t.out, t.pkg).CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("go build %s: %v\n%s", t.pkg, err, out)
		}
	}
	if out, err := exec.Command("go", "build", "-o", b.ladder, "./benchmark/ladder").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: the ladder does not build; per-layer rungs are unavailable:\n%s", out)
		b.ladder = ""
	}
	return b, nil
}

// live tracks every server process the driver has started and not yet
// reaped, so that any exit path can kill them: nothing may be left
// listening when the driver ends.
var live struct {
	sync.Mutex
	procs map[*server]struct{}
}

func killAllServers() {
	live.Lock()
	defer live.Unlock()
	for s := range live.procs {
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	live.procs = nil
}

// server is one aquoman-serve process under test.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	spawn  time.Time
	// exited is closed once Wait has returned and waitErr is set.
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the binary on a free loopback port and returns once
// /healthz answers 200, which is after data generation and re-encoding.
func startServer(bin string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{url: "http://" + addr, stderr: &bytes.Buffer{}, spawn: time.Now()}
	s.cmd = exec.Command(bin, append([]string{"-listen", addr}, flags...)...)
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*server]struct{}{}
	}
	live.procs[s] = struct{}{}
	live.Unlock()

	s.exited = make(chan struct{})
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			_ = s.stop()
			return nil, fmt.Errorf("server exited before /healthz answered:\n%s", s.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	_ = s.stop()
	return nil, errors.New("server did not answer /healthz within 120 s")
}

var crashLine = regexp.MustCompile(`(?m)^(panic:|fatal error:|goroutine \d+ \[running\]:).*$`)

// stop sends SIGTERM and requires a clean drain: exit status 0 and no
// panic or runtime-fatal line on stderr. A server that ignores SIGTERM
// for 40 s is killed and reported.
func (s *server) stop() error {
	live.Lock()
	_, mine := live.procs[s]
	delete(live.procs, s)
	live.Unlock()
	if !mine {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("server did not exit within 40 s of SIGTERM; killed")
	}
	if m := crashLine.FindString(s.stderr.String()); m != "" {
		return fmt.Errorf("server stderr has a crash line: %s", m)
	}
	if s.waitErr != nil {
		return fmt.Errorf("server exit after SIGTERM: %v\n%s", s.waitErr, lastLines(s.stderr.String(), 5))
	}
	return nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc/<pid>/status")
}

// cpuSeconds reads the CPU time the process has consumed so far (user +
// system) from /proc/<pid>/stat. The kernel reports it in clock ticks of
// 1/100 s (USER_HZ, fixed at 100 on Linux).
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc/<pid>/stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable CPU time in /proc/<pid>/stat")
	}
	return (utime + stime) / 100, nil
}

// stolenSeconds reads how much CPU time the hypervisor has taken from
// this machine so far (the steal column of /proc/stat). A run during
// which it grows is a run a neighbour interfered with.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}
