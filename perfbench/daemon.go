package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one mecpid child process with its own fresh run store,
// driven by a single client over one keep-alive loopback connection.
type daemon struct {
	cmd    *exec.Cmd
	done   chan error // receives cmd.Wait's result once the process exits
	url    string
	client *http.Client
	dials  atomic.Int64
}

// startDaemon launches mecpid on a free loopback port with a run store
// under dir, and returns once GET /healthz answers.
func startDaemon(bin, dir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "mecpid.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-store", filepath.Join(dir, "store"),
		"-ops", strconv.Itoa(daemonOps), "-starts", strconv.Itoa(daemonStarts),
		"-workers", strconv.Itoa(workers), "-drain", "10s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Should the benchmark itself be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mecpid: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.url = "http://" + string(addr)
			break
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("mecpid exited during start-up (%v); see %s", err, logFile.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mecpid did not bind within 30s")
		}
	}
	dialer := &net.Dialer{}
	d.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			d.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	if status, body, err := d.do("/healthz", nil); err != nil || status != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("mecpid health check: status %d, %v: %s", status, err, body)
	}
	return d, nil
}

// do sends one request (a POST when body is non-nil, else a GET) and
// reads the whole answer, so the connection goes back to the pool.
func (d *daemon) do(path string, body []byte) (int, []byte, error) {
	var (
		resp *http.Response
		err  error
	)
	if body == nil {
		resp, err = d.client.Get(d.url + path)
	} else {
		resp, err = d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (d *daemon) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	status, body, err := d.do("/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux configuration Go supports.
const clockTicks = 100

// cpuTime reads the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// stop asks the daemon to shut down, kills it if it does not exit
// within ten seconds, and waits for it either way.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}
