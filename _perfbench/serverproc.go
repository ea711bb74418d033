package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/pkg/client"
)

// serverProc is one sphexa-serve process with its own, initially empty,
// store and data directories.
type serverProc struct {
	cmd   *exec.Cmd
	base  string
	flags []string
	done  chan error
}

// startServer launches sphexa-serve over fresh directories under dir and
// returns once /v1/healthz answers and the store reports itself empty.
func startServer(bin, dir string, w workload, workers int) (*serverProc, error) {
	storeDir := filepath.Join(dir, "store")
	dataDir := filepath.Join(dir, "data")
	for _, d := range []string{storeDir, dataDir} {
		if err := requireEmptyDir(d); err != nil {
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	flags := []string{
		"-addr", addr,
		"-workers", strconv.Itoa(workers),
		"-data-dir", dataDir,
		"-store-dir", storeDir,
		"-checkpoint-every", strconv.Itoa(w.checkpointEvery()),
		"-log-level", "warn",
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, flags...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, flags: flags, done: make(chan error, 1)}
	go func() { sp.done <- cmd.Wait() }()

	cl := client.New(sp.base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := cl.Health(ctx)
		cancel()
		if err == nil {
			break
		}
		select {
		case werr := <-sp.done:
			return nil, fmt.Errorf("sphexa-serve exited during start-up: %v (log: %s)", werr, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("sphexa-serve not healthy after 30s: %v", err)
		}
		time.Sleep(250 * time.Microsecond)
	}
	st, err := cl.StoreStats(context.Background())
	if err != nil {
		sp.stop()
		return nil, fmt.Errorf("reading store stats: %w", err)
	}
	if st.Entries != 0 || st.Quarantined != 0 {
		sp.stop()
		return nil, fmt.Errorf("refusing to run: the server's store is not empty (%d entries, %d quarantined)",
			st.Entries, st.Quarantined)
	}
	return sp, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (sp *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// stop terminates the server and waits for it to exit.
func (sp *serverProc) stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.done:
	case <-time.After(10 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.done
	}
}

// requireEmptyDir creates dir, refusing to reuse one that holds anything.
func requireEmptyDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err == nil && len(ents) > 0 {
		return fmt.Errorf("refusing to run: %s is not empty", dir)
	}
	return os.MkdirAll(dir, 0o755)
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}
