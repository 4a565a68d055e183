package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// resultSet is one full set of runs of one commit: every workload on
// several seeds with tracing off, one traced run each, and where it was
// measured. Two sets of the same code are what -compare checks the
// benchmark's own steadiness with.
type resultSet struct {
	Machine   fingerprint               `json:"machine"`
	Seconds   float64                   `json:"seconds"`
	Seeds     []int64                   `json:"seeds"`
	Workloads map[string]*workloadStats `json:"workloads"`
}

type workloadStats struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*metricStat `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// metricStat summarises one end-to-end metric over the seeds.
type metricStat struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// spread is the inter-quartile distance as a share of the median.
func (s *metricStat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles are the cut points Python's statistics.quantiles(n=4)
// gives (the exclusive method), so a spread computed here is the one
// the acceptance check computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// fingerprint says what the numbers were measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	StateDirFS string `json:"state_dir_filesystem"`
	RcvBuf     int    `json:"so_rcvbuf_granted"`
}

var fsNames = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func machineFingerprint(stateDir string) fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(stateDir, &st); err == nil {
		name, ok := fsNames[int64(st.Type)]
		if !ok {
			name = "0x" + strconv.FormatInt(int64(st.Type), 16)
		}
		fp.StateDirFS = name
	}
	if conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		if raw, err := conn.SyscallConn(); err == nil {
			_ = raw.Control(func(fd uintptr) {
				fp.RcvBuf, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
			})
		}
		conn.Close()
	}
	return fp
}

// child runs this binary once on one workload, in its own process, and
// decodes the last line it prints.
func child(o options, workload string, seed int64, trace int, log io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--size", o.size, "--out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v): %w", workload, seed, runErr, err)
	}
	return &rep, nil
}

func writeResultSet(o options, log io.Writer) error {
	if o.runs < 1 {
		return fmt.Errorf("-results needs -runs >= 1")
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	set := resultSet{Machine: machineFingerprint(o.outDir), Seconds: o.seconds, Workloads: map[string]*workloadStats{}}
	for i := 0; i < o.runs; i++ {
		set.Seeds = append(set.Seeds, o.seed+int64(i))
	}
	for _, name := range names {
		ws := &workloadStats{EndToEnd: map[string]*metricStat{}, PerLayer: map[string]metricValue{}}
		set.Workloads[name] = ws
		for _, seed := range set.Seeds {
			rep, err := child(o, name, seed, 0, log)
			if err != nil {
				return err
			}
			ws.Attempted += rep.Attempted
			ws.Failed += rep.Failed
			for _, d := range endToEnd {
				st := ws.EndToEnd[d.name]
				if st == nil {
					st = &metricStat{Unit: d.unit}
					ws.EndToEnd[d.name] = st
				}
				st.Values = append(st.Values, rep.Metrics[d.name].Value)
			}
		}
		for _, st := range ws.EndToEnd {
			st.Q1, st.Median, st.Q3 = quartiles(st.Values)
		}
		rep, err := child(o, name, o.seed, 1, log)
		if err != nil {
			return err
		}
		ws.Failed += rep.Failed
		ws.PerLayer = rep.Metrics
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.results), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.results, append(raw, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets prints, per workload and end-to-end metric, both medians,
// the wider of the two inter-quartile spreads and the bound, and marks
// each row ok, regressed (B worse than A by more than the bound) or
// unresolved (spread wider than the bound, so the medians decide
// nothing).
func compareSets(pathA, pathB string, out io.Writer) (regressed bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-12s %-24s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			regressed = true
			fmt.Fprintf(out, "%-12s failed operations: A %d, B %d  regressed\n", name, wa.Failed, wb.Failed)
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil || sa.Median == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			case spread > d.bound && d.name != "setup_s":
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, d.name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, 100*spread, 100*d.bound, verdict)
		}
	}
	return regressed, nil
}
