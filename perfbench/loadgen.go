package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// trialTimeout bounds one scotty process; a run that takes longer is killed
// and counted as failed.
const trialTimeout = 60 * time.Second

// trialOpts selects what one scotty run does and records.
type trialOpts struct {
	// rate paces the input at that many lines/s (open loop); 0 writes as
	// fast as the pipe accepts (saturation).
	rate float64
	// keep retains stdout for the reference check.
	keep bool
	// env is appended to the benchmark's environment.
	env []string
	// scrape serves -metrics and reads core_tuples_total once every row up
	// to the last periodic watermark has been read, before stdin closes.
	scrape bool
	// empty closes stdin without writing (the set-up trial).
	empty bool
}

// trial is what one scotty run measured.
type trial struct {
	wall             time.Duration // first byte written to EOF on stdout
	total            time.Duration // process start to exit
	cpuUser, cpuSys  time.Duration
	peakRSSKB        int64 // scotty's VmHWM, sampled while it runs
	rows             int
	bytesOut         int64
	hash             uint64
	out              []byte
	blocked          time.Duration // time pipe writes blocked
	lateMax          time.Duration // how far the paced writer fell behind
	latMS            []float64     // per-row latency of a paced trial
	stderr           []byte
	malformedSkipped int
	scrapedTuples    int64
	err              error
}

// harness runs scotty processes for one workload.
type harness struct {
	bin   string
	work  string // directory for stderr logs
	args  []string
	in    *input
	model *model
	seq   int
}

// readResult is what the stdout reader hands back to the writer.
type readResult struct {
	eof    time.Time
	rows   int
	bytes  int64
	hash   uint64
	out    []byte
	latMS  []float64
	peakKB int64
	err    error
}

// run starts one scotty process, feeds it the input, and reads its output.
// The calling goroutine writes; one reader goroutine drains stdout.
func (h *harness) run(opts trialOpts) (t trial) {
	h.seq++
	args := h.args
	if opts.scrape {
		args = append(append([]string{}, args...), "-metrics", "127.0.0.1:0")
	}
	errPath := filepath.Join(h.work, fmt.Sprintf("stderr-%d-%d.log", os.Getpid(), h.seq))
	errFile, err := os.Create(errPath)
	if err != nil {
		t.err = err
		return t
	}
	defer os.Remove(errPath)
	defer errFile.Close()

	ctx, cancel := context.WithTimeout(context.Background(), trialTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.bin, args...)
	cmd.Env = append(os.Environ(), opts.env...)
	cmd.Stderr = errFile
	pr, stdin, err := os.Pipe()
	if err != nil {
		t.err = err
		return t
	}
	defer stdin.Close()
	cmd.Stdin = pr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		pr.Close()
		t.err = err
		return t
	}
	begin := time.Now()
	err = cmd.Start()
	pr.Close()
	if err != nil {
		t.err = fmt.Errorf("start scotty: %w", err)
		return t
	}
	if opts.rate > 0 {
		// A paced writer must not block on a brief scotty stall: a 1 MiB
		// pipe holds over 100 ms of input at every workload's rate, so
		// the writer's lateness measures the generator alone. Rows the
		// stall delays are still timed from their lines' schedule. A pipe
		// left at the default size only makes the lateness include stalls.
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, stdin.Fd(), syscall.F_SETPIPE_SZ, 1<<20)
	}

	t0 := time.Now()
	seen := &atomic.Int64{}
	done := make(chan readResult, 1)
	pid := cmd.Process.Pid
	go func() { done <- h.read(stdout, t0, opts, seen, pid) }()

	var werr error
	switch {
	case opts.empty:
	case opts.rate > 0:
		t.lateMax, werr = h.pace(stdin, t0, opts.rate)
	default:
		t.blocked, werr = h.saturate(stdin)
	}
	if werr == nil && opts.scrape {
		t.scrapedTuples, werr = h.scrape(errPath, seen)
	}
	stdin.Close()
	rr := <-done
	waitErr := cmd.Wait()
	t.total = time.Since(begin)

	t.wall = rr.eof.Sub(t0)
	t.rows, t.bytesOut, t.hash, t.out, t.latMS = rr.rows, rr.bytes, rr.hash, rr.out, rr.latMS
	t.peakRSSKB = rr.peakKB
	if ps := cmd.ProcessState; ps != nil {
		t.cpuUser, t.cpuSys = ps.UserTime(), ps.SystemTime()
	}
	t.stderr, _ = os.ReadFile(errPath)
	t.malformedSkipped = bytes.Count(t.stderr, []byte("skipping malformed line:"))
	t.err = errors.Join(werr, rr.err, waitErr)
	if ctx.Err() != nil {
		t.err = errors.Join(t.err, fmt.Errorf("scotty killed after %v", trialTimeout))
	}
	return t
}

// saturate writes the whole input as fast as the pipe accepts it and
// returns the time spent blocked in writes.
func (h *harness) saturate(w io.Writer) (time.Duration, error) {
	const chunk = 64 << 10
	var blocked time.Duration
	csv := h.in.csv
	for off := 0; off < len(csv); off += chunk {
		s := time.Now()
		_, err := w.Write(csv[off:min(off+chunk, len(csv))])
		blocked += time.Since(s)
		if err != nil {
			return blocked, fmt.Errorf("write input: %w", err)
		}
	}
	return blocked, nil
}

// lineTime is the scheduled write time of line i, relative to t0.
func lineTime(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * 1e9)
}

// pace writes line i at t0 + i/rate: every line whose time has come goes out
// in one write, then the writer sleeps until the next line is due. It
// returns how far behind schedule the writer fell at worst.
func (h *harness) pace(w io.Writer, t0 time.Time, rate float64) (time.Duration, error) {
	in := h.in
	n := len(in.lineEnd)
	var lateMax time.Duration
	for next := 0; next < n; {
		now := time.Since(t0)
		due := min(int(now.Seconds()*rate)+1, n)
		if due <= next {
			// time.Sleep wakes on the runtime's millisecond poller tick
			// once its thread parks; nanosleep wakes within the kernel's
			// 50 µs timer slack.
			ts := syscall.NsecToTimespec(int64(lineTime(next, rate) - now))
			_ = syscall.Nanosleep(&ts, nil)
			continue
		}
		if late := now - lineTime(next, rate); late > lateMax {
			lateMax = late
		}
		if _, err := w.Write(in.csv[in.lineStart(next):in.lineEnd[due-1]]); err != nil {
			return lateMax, fmt.Errorf("write input: %w", err)
		}
		next = due
	}
	return lateMax, nil
}

// read drains scotty's stdout: it counts and hashes rows, keeps the bytes
// when asked, and on a paced trial times every row from its due line's
// scheduled write.
func (h *harness) read(r io.Reader, t0 time.Time, opts trialOpts, seen *atomic.Int64, pid int) readResult {
	var rr readResult
	var sampled time.Duration
	hs := fnv.New64a()
	buf := make([]byte, 256<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			now := time.Since(t0)
			chunk := buf[:n]
			hs.Write(chunk)
			if opts.keep {
				rr.out = append(rr.out, chunk...)
			}
			rows := bytes.Count(chunk, []byte{'\n'})
			if opts.rate > 0 {
				for k := rr.rows; k < rr.rows+rows; k++ {
					line := len(h.in.lineEnd) - 1
					if k < len(h.model.rowLine) {
						line = int(h.model.rowLine[k])
					}
					rr.latMS = append(rr.latMS, float64(now-lineTime(line, opts.rate))/1e6)
				}
			}
			rr.rows += rows
			rr.bytes += int64(n)
			seen.Store(int64(rr.rows))
			if opts.rate == 0 && now-sampled >= 20*time.Millisecond {
				if kb := peakRSSKB(pid); kb > 0 {
					rr.peakKB = kb
				}
				sampled = now
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rr.err = fmt.Errorf("read output: %w", err)
			break
		}
	}
	rr.eof = time.Now()
	rr.hash = hs.Sum64()
	return rr
}

// scrape reads core_tuples_total from scotty's /metrics endpoint once the
// run is quiescent: every row up to the last periodic watermark has been
// read, and the counter — which scotty publishes at watermarks — has held
// its value for five reads 20 ms apart while scotty waits for more input.
func (h *harness) scrape(errPath string, seen *atomic.Int64) (int64, error) {
	deadline := time.Now().Add(20 * time.Second)
	url := ""
	for url == "" {
		data, _ := os.ReadFile(errPath)
		if i := bytes.Index(data, []byte("metrics: http://")); i >= 0 {
			if j := bytes.IndexByte(data[i:], '\n'); j > 0 {
				url = string(data[i+len("metrics: ") : i+j])
			}
		}
		if url == "" {
			if time.Now().After(deadline) {
				return 0, errors.New("scrape: scotty printed no metrics address")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for seen.Load() < int64(h.model.rowsBeforeDrain) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("scrape: read %d rows, waited for %d", seen.Load(), h.model.rowsBeforeDrain)
		}
		time.Sleep(time.Millisecond)
	}
	last, same := int64(-1), 0
	for same < 5 {
		if time.Now().After(deadline) {
			return 0, errors.New("scrape: core_tuples_total did not settle")
		}
		v, err := scrapeTuples(url)
		if err != nil {
			return 0, err
		}
		if v == last {
			same++
		} else {
			last, same = v, 1
		}
		time.Sleep(20 * time.Millisecond)
	}
	return last, nil
}

func scrapeTuples(url string) (int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "core_tuples_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("scrape: %w", err)
	}
	return 0, errors.New("scrape: no core_tuples_total series")
}

// peakRSSKB reads a running process's peak resident set (VmHWM) in KiB, or
// 0 once it has exited. rusage's max RSS is no use here: the child is cloned
// from the benchmark process, and Linux carries the parent's peak RSS over
// into the child's through exec.
func peakRSSKB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(string(line)), "kB")), 10, 64)
	if err != nil {
		return 0
	}
	return kb
}

// gcTrace sums the GC cycles and stop-the-world pauses that
// GODEBUG=gctrace=1 reports on stderr. A line reads
// "gc 7 @0.318s 2%: 0.015+1.2+0.021 ms clock, ..."; the first and third
// clock terms are the two pauses.
func gcTrace(stderr []byte) (cycles int, pauseMS float64) {
	for _, line := range strings.Split(string(stderr), "\n") {
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		clock, _, _ := strings.Cut(rest, " ms clock")
		parts := strings.Split(clock, "+")
		if len(parts) != 3 {
			continue
		}
		a, err1 := strconv.ParseFloat(parts[0], 64)
		c, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		cycles++
		pauseMS += a + c
	}
	return cycles, pauseMS
}
