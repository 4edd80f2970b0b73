// Command secctl is the operator tool for a running cluster. The change
// verbs speak to the frontend's admin surface (kvstore.Frontend's
// AdminHandlers), guard polls the backends' /metrics as well, and bound
// is the offline provisioning calculator:
//
//	secctl status -admin 127.0.0.1:8000              # membership view + rotation state
//	secctl rotate -admin 127.0.0.1:8000 [-seed S] [-wait]
//	secctl join   -admin 127.0.0.1:8000 [-wait] HOST:PORT...
//	secctl drain  -admin 127.0.0.1:8000 [-wait] ID...
//	secctl guard  -admins 127.0.0.1:8001,127.0.0.1:8002,127.0.0.1:8003 \
//	              -d 3 -m 100000 -c 16 -interval 5s -windows 12
//	secctl bound  -n 1000 -d 3 -m 100000 -c 200
//
// -wait blocks until no epoch change is open or queued, then prints the
// status. Every admin exchange goes through call.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"
	"time"

	"securecache/internal/core"
	"securecache/internal/kvstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secctl:", err)
		os.Exit(2)
	}
}

// run executes one verb; its report goes to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("need a verb: status | rotate | join | drain | guard | bound")
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("secctl "+verb, flag.ExitOnError)
	switch verb {
	case "guard":
		return runGuard(fs, args, w)
	case "bound":
		return runBound(fs, args, w)
	case "status", "rotate", "join", "drain":
	default:
		return fmt.Errorf("unknown verb %q: want status | rotate | join | drain | guard | bound", verb)
	}
	admin := fs.String("admin", "", "frontend admin address (host:port)")
	var seed string
	var wait bool
	if verb != "status" {
		fs.BoolVar(&wait, "wait", false, "block until the change commits or aborts")
	}
	if verb == "rotate" {
		fs.StringVar(&seed, "seed", "", "explicit new partition seed (default: frontend draws a random one)")
	}
	fs.Parse(args)
	if *admin == "" {
		return fmt.Errorf("%s: need -admin", verb)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	var err error
	switch verb {
	case "status":
		return printStatus(client, *admin, w)
	case "rotate":
		err = rotate(client, *admin, seed, w)
	default:
		err = viewChange(client, *admin, verb, fs.Args(), w)
	}
	if err != nil || !wait {
		return err
	}
	return waitSettled(client, *admin, w)
}

// call is secctl's one HTTP exchange with an admin surface: method on
// http://addr+path, the answer read up to 1 MiB, any status other than
// 200 and the listed accept codes an error carrying the body, and the
// JSON payload decoded into out.
func call(client *http.Client, method, addr, path string, out any, accept ...int) error {
	req, err := http.NewRequest(method, "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && !slices.Contains(accept, resp.StatusCode) {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: bad payload: %w", method, path, err)
	}
	return nil
}

// rotate POSTs /rotate (seed "" = the frontend draws its own) and
// prints the new epoch and the expected migration volume. A 409 (an
// epoch change is already open) is an error.
func rotate(client *http.Client, admin, seed string, w io.Writer) error {
	path := "/rotate"
	if seed != "" {
		path += "?seed=" + url.QueryEscape(seed)
	}
	var report kvstore.RotationReport
	if err := call(client, http.MethodPost, admin, path, &report); err != nil {
		return err
	}
	fmt.Fprintf(w, "rotation started: epoch %d, ~%.0f%% of keys expected to move\n",
		report.Epoch, 100*report.ExpectedMovedFraction)
	return nil
}

// viewChange POSTs /join (args are backend addresses) or /drain (args
// are member IDs); each arg may itself be a comma-separated list. A 202
// means the change was queued behind an in-flight one — still a success:
// the frontend runs it when the pipeline frees up.
func viewChange(client *http.Client, admin, verb string, args []string, w io.Writer) error {
	param := map[string]string{"join": "addr", "drain": "id"}[verb]
	q := url.Values{}
	for _, a := range splitNonEmpty(strings.Join(args, ",")) {
		q.Add(param, a)
	}
	if len(q) == 0 {
		return fmt.Errorf("%s: need at least one %s", verb, param)
	}
	var report kvstore.MembershipReport
	if err := call(client, http.MethodPost, admin, "/"+verb+"?"+q.Encode(), &report, http.StatusAccepted); err != nil {
		return err
	}
	if report.Queued {
		fmt.Fprintf(w, "%s of %s queued behind an in-flight change\n", verb, strings.Join(q[param], ", "))
		return nil
	}
	fmt.Fprintf(w, "view v%d staged at epoch %d (~%.0f%% of keys will move)\n",
		report.Version, report.Epoch, 100*report.ExpectedMovedFraction)
	for _, jn := range report.Joined {
		fmt.Fprintf(w, "  joining node %d at %s\n", jn.ID, jn.Addr)
	}
	for _, id := range report.Drained {
		fmt.Fprintf(w, "  draining node %d\n", id)
	}
	return nil
}

// waitSettled polls /membership until no epoch change is open or
// queued, then prints the status. Rotating covers a seed rotation as
// well as a view change, so this one loop serves all three change verbs.
func waitSettled(client *http.Client, admin string, w io.Writer) error {
	for {
		var st kvstore.MembershipStatus
		if err := call(client, http.MethodGet, admin, "/membership", &st); err != nil {
			return err
		}
		if !st.Changing && !st.Rotating && st.QueuedChanges == 0 {
			return printStatus(client, admin, w)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// printStatus prints the frontend's /membership and /rotation views.
func printStatus(client *http.Client, admin string, w io.Writer) error {
	var ms kvstore.MembershipStatus
	var rs kvstore.RotationStatus
	if err := call(client, http.MethodGet, admin, "/membership", &ms); err != nil {
		return err
	}
	if err := call(client, http.MethodGet, admin, "/rotation", &rs); err != nil {
		return err
	}
	state := "settled"
	if ms.Changing {
		state = "view change open"
	} else if ms.Rotating {
		state = "rotation open"
	}
	fmt.Fprintf(w, "view v%d epoch %d (%s): %d members %v\n",
		ms.Version, ms.Epoch, state, len(ms.Members), ms.Members)
	for _, node := range ms.Nodes {
		fmt.Fprintf(w, "  node %d %s %s\n", node.ID, node.Addr, node.State)
	}
	if ms.CStar > 0 {
		fmt.Fprintf(w, "  provisioned c*=%d cache capacity=%d\n", ms.CStar, ms.CacheCapacity)
	}
	if ms.QueuedChanges > 0 {
		fmt.Fprintf(w, "  %d view changes queued\n", ms.QueuedChanges)
	}
	fmt.Fprintf(w, "  last change moved %d keys; %d rotations completed\n", rs.Moved, rs.Completed)
	return nil
}

// runBound is the cache-provisioning calculator: given a cluster shape
// (n nodes, replication d, m items) and optionally a current cache size
// c, it prints the paper's provisioning verdict — the required cache
// size c* = ceil(n·k + 1), whether the configured cache stops every
// adversarial access pattern, and the worst-case attack gain bound.
func runBound(fs *flag.FlagSet, args []string, w io.Writer) error {
	var (
		n      = fs.Int("n", 1000, "number of back-end nodes")
		d      = fs.Int("d", 3, "replication factor")
		m      = fs.Int("m", 100000, "number of items stored")
		c      = fs.Int("c", 0, "current front-end cache size")
		k      = fs.Float64("k", 0, "override the bound constant k (paper fits 1.2); 0 = gap + k'")
		kPrime = fs.Float64("kprime", 0, "additive constant k' of k = lnln(n)/ln(d) + k'; 0 = calibrated default")
	)
	fs.Parse(args)
	p := core.Params{Nodes: *n, Replication: *d, Items: *m, CacheSize: *c, KOverride: *k, KPrime: *kPrime}
	report, err := p.Provision()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)
	fmt.Fprintf(w, "\n  gap term ln(ln n)/ln(d)  = %.4f\n", report.Gap)
	fmt.Fprintf(w, "  bound constant k         = %.4f\n", report.K)
	fmt.Fprintf(w, "  required cache size c*   = %d entries (O(n): %.2f per node)\n",
		report.RequiredCacheSize, float64(report.RequiredCacheSize)/float64(*n))
	fmt.Fprintf(w, "  adversary's best x       = %d keys\n", report.BestX)
	if report.CurrentEffective {
		fmt.Fprintf(w, "  verdict: PROTECTED — no access pattern pushes any node above the even share (gain bound %.4f <= 1)\n",
			float64(report.WorstGainAtCurrent))
	} else {
		fmt.Fprintf(w, "  verdict: VULNERABLE — an adversary querying %d keys achieves gain up to %.4f (> 1)\n",
			report.BestX, float64(report.WorstGainAtCurrent))
		fmt.Fprintf(w, "  fix: grow the front-end cache from %d to %d entries\n", *c, report.RequiredCacheSize)
	}
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
