package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every Linux architecture Go supports).
const clkTck = 100

// proc is one running schedd child process.
type proc struct {
	cmd    *exec.Cmd
	url    string
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
	stderr *os.File
}

// deployment is one launch of a workload's schedd processes, with the
// directory holding their snapshot stores and logs.
type deployment struct {
	procs []*proc
	dir   string
}

// freePorts reserves n loopback ports by binding and releasing them.
// A ring's members must know each other's URLs before they start.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// launch starts w.nodes schedd processes under dir. A single
// node listens on :0; a ring's members get reserved ports and each
// other as -peers, each with its own snapshot directory.
func launch(bin, dir string, w *workload) (cl *deployment, err error) {
	cl = &deployment{dir: dir}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cl, err
	}
	if w.nodes == 1 {
		p, err := startProc(bin, dir, 0, []string{"-addr", "127.0.0.1:0", "-quiet"})
		if err != nil {
			return cl, err
		}
		cl.procs = append(cl.procs, p)
		return cl, nil
	}
	ports, err := freePorts(w.nodes)
	if err != nil {
		return cl, err
	}
	var urls []string
	for _, port := range ports {
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", port))
	}
	for i, port := range ports {
		snap := filepath.Join(dir, fmt.Sprintf("snap%d", i))
		if err := os.MkdirAll(snap, 0o755); err != nil {
			return cl, err
		}
		p, err := startProc(bin, dir, i, []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-quiet",
			"-peers", strings.Join(urls, ","),
			"-replication", strconv.Itoa(w.replication),
			"-snapshot-dir", snap,
		})
		if err != nil {
			return cl, err
		}
		cl.procs = append(cl.procs, p)
	}
	return cl, nil
}

// startProc starts one schedd and waits for its listening line. The
// child gets SIGKILL if the benchmark dies without stopping it.
func startProc(bin, dir string, i int, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := os.Create(filepath.Join(dir, fmt.Sprintf("schedd%d.stderr", i)))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		stderr.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), stderr: stderr}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "schedd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		stderr.Close()
		return nil, fmt.Errorf("schedd exited before listening: %v (see %s)", p.err, stderr.Name())
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, errors.New("schedd did not report its address within 15s")
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 5s) and
// waits until it has been reaped.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.stderr.Close()
}

// stop ends every process and removes the deployment's directory.
func (cl *deployment) stop() {
	for _, p := range cl.procs {
		p.stop()
	}
	cl.procs = nil
	os.RemoveAll(cl.dir)
}

func (cl *deployment) urls() []string {
	var out []string
	for _, p := range cl.procs {
		out = append(out, p.url)
	}
	return out
}

// cpuMs is the summed user+system CPU of every process, in ms.
func (cl *deployment) cpuMs() (float64, error) {
	var total float64
	for _, p := range cl.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is field
		// 3, utime and stime are fields 14 and 15.
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
		}
		for _, field := range f[11:13] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return 0, err
			}
			total += v * 1000 / clkTck
		}
	}
	return total, nil
}

// peakRSSMB is the summed VmHWM of every process, in MiB.
func (cl *deployment) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range cl.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
	}
	return total, nil
}

// hostTicks reads the steal and total jiffies of the whole machine
// from /proc/stat. Steal is time the hypervisor kept a runnable vCPU
// off the CPU; the report prints its share of the measured window.
func hostTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, field := range f[1:] {
		v, _ := strconv.ParseFloat(field, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
