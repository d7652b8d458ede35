package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the /proc/<pid>/stat CPU time unit (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// serverProc is one pxserve process on a warehouse directory, listening
// on a kernel-assigned loopback port.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	stdout  chan struct{}
	log     *os.File
}

// startServer execs pxserve on dir and returns once it listens (after
// its warehouse recovery finished, which pxserve runs before binding).
func startServer(bin, dir, backend string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(dir), filepath.Base(dir)+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-dir", dir, "-store", backend, "-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	// A benchmark killed from outside must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &serverProc{cmd: cmd, log: logf, stdout: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec pxserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // drain until exit
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.stdout:
		s.kill()
		return nil, fmt.Errorf("pxserve exited before listening (see %s)", logf.Name())
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pxserve did not listen within 120s")
	}
}

// waitReady polls GET /readyz until it answers 200.
func (s *serverProc) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pxserve not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpu returns the process's user+system CPU time so far.
func (s *serverProc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// kill SIGKILLs the process and waits for it to be gone.
func (s *serverProc) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already exited is fine
	<-s.stdout
	s.cmd.Wait() //nolint:errcheck // killed on purpose
	s.log.Close()
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// cpuSeries is a process's CPU time sampled over a window: when[i] is
// the offset from the window's start, cpu[i] the CPU time then.
type cpuSeries struct {
	when, cpu []time.Duration
}

// at returns the CPU time at offset t, interpolated between samples.
func (c *cpuSeries) at(t time.Duration) time.Duration {
	i := sort.Search(len(c.when), func(i int) bool { return c.when[i] >= t })
	switch {
	case i == 0:
		return c.cpu[0]
	case i == len(c.when):
		return c.cpu[len(c.cpu)-1]
	}
	span := c.when[i] - c.when[i-1]
	if span <= 0 {
		return c.cpu[i]
	}
	return c.cpu[i-1] + time.Duration(float64(c.cpu[i]-c.cpu[i-1])*float64(t-c.when[i-1])/float64(span))
}

// cpuSampler reads a process's CPU time every cpuSampleEvery until
// stopped.
type cpuSampler struct {
	stopc  chan struct{}
	done   chan struct{}
	series cpuSeries
	err    error
}

const cpuSampleEvery = 50 * time.Millisecond

// sampleCPU starts sampling the process's CPU time, relative to start.
func (s *serverProc) sampleCPU(start time.Time) (*cpuSampler, error) {
	c := &cpuSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	read := func() error {
		v, err := s.cpu()
		if err == nil {
			c.series.when = append(c.series.when, time.Since(start))
			c.series.cpu = append(c.series.cpu, v)
		}
		return err
	}
	if err := read(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(cpuSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				c.err = read()
				return
			case <-t.C:
				if c.err = read(); c.err != nil {
					return
				}
			}
		}
	}()
	return c, nil
}

// stop ends the sampling with a final reading and returns the series.
func (c *cpuSampler) stop() (*cpuSeries, error) {
	close(c.stopc)
	<-c.done
	return &c.series, c.err
}
