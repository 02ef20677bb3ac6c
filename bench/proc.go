package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything the benchmark writes: binaries, logs, journals
// and traces. The harness runs with bench/ as its working directory.
const outDir = "out"

// buildDaemon compiles loopschedd from the checkout's sources into
// out/bin, before any timing. The go command's own cache makes a second
// build of unchanged sources a sub-second no-op.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "loopschedd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/loopschedd")
	cmd.Dir = ".."
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build loopschedd: %v\n%s", err, msg)
	}
	return bin, nil
}

// daemon is one loopschedd child in its own process group.
type daemon struct {
	name   string // node name: n1, n2, n3
	base   string // http://127.0.0.1:port
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
}

// live is every child not yet reaped, so killAll can end them on any exit
// path of the harness.
var live struct {
	sync.Mutex
	m map[*daemon]struct{}
}

// freeAddr picks a loopback port nobody is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin as node name on addr with args, logging to
// logPath, and returns once /readyz answers 200.
func startDaemon(bin, name, addr, logPath string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: name, base: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]struct{}{}
	}
	live.m[d] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // a killed child's status is not news
		close(d.exited)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			d.forget()
			return nil, fmt.Errorf("loopschedd on %s exited during boot; see %s", addr, logPath)
		default:
		}
		if resp, err := http.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("loopschedd on %s not ready after 10s; see %s", addr, logPath)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) forget() {
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// terminate asks for a graceful shutdown (drain, journal flush) and
// waits for the exit; a child still alive after grace is killed.
func (d *daemon) terminate(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.exited:
		d.forget()
	case <-time.After(grace):
		d.kill()
	}
}

// kill ends the child's whole process group and waits until it is gone.
func (d *daemon) kill() {
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // already gone is fine
	<-d.exited
	d.forget()
}

// killAll ends every child still alive: the harness's exit, SIGINT and
// panic paths all come through here.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// procCPU returns the user+system CPU time a process has used so far,
// all threads included, from /proc/<pid>/stat (USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procKB returns a kB field of /proc/<pid>/status: VmHWM is the peak
// resident set, VmRSS the current one.
func procKB(pid int, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
