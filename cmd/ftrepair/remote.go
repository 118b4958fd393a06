package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

// runRemote executes the job on a remote ftrepaird instead of in-process: it
// POSTs the spec, follows the job's event stream via the JSON long-poll
// (progress goes to stderr under -v), and renders the final RunReport. The
// same flag set drives both paths, so `ftrepair -case ba -n 3` and
// `ftrepair -server http://host:8727 -case ba -n 3` describe the identical
// job.
func runRemote(server string, spec service.Spec, verbose, jsonOut, explain bool) {
	server = strings.TrimRight(server, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, server+"/v1/repair", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "ftrepair")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(fmt.Errorf("submitting to %s: %w", server, err))
	}
	view := decodeView(resp)
	if verbose {
		fmt.Fprintf(os.Stderr, "job %s %s (key %s)\n", view.ID, view.State, short(view.Key))
	}

	// Follow the event stream until the job lands. The long-poll fallback is
	// used instead of SSE because it needs no streaming parser and blocks
	// server-side — each round trip returns only news.
	var after int64
	for !view.State.Terminal() {
		page := pollEvents(server, view.ID, after)
		for _, ev := range page.Events {
			after = ev.Seq
			if verbose {
				switch ev.Type {
				case "phase":
					fmt.Fprintf(os.Stderr, "phase: %s\n", ev.Phase)
				case "state":
					msg := ""
					if ev.Message != "" {
						msg = " (" + ev.Message + ")"
					}
					fmt.Fprintf(os.Stderr, "state: %s%s\n", ev.State, msg)
				}
			}
		}
		if page.Done {
			break
		}
	}

	final, err := getJob(server, view.ID)
	if err != nil {
		fatal(err)
	}
	switch final.State {
	case service.StateDone:
	case service.StateFailed:
		fatal(fmt.Errorf("remote job failed: %s", final.Error))
	case service.StateCancelled:
		fatal(fmt.Errorf("remote job cancelled: %s", final.Error))
	default:
		fatal(fmt.Errorf("remote job ended in state %s", final.State))
	}
	report := final.Result
	if report == nil {
		fatal(fmt.Errorf("remote job done but carried no report"))
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		if report.Verified != nil && !*report.Verified {
			os.Exit(1)
		}
		return
	}

	name := report.Model
	if report.Case != "" {
		name = fmt.Sprintf("%s (n=%d)", report.Case, report.N)
	}
	fmt.Printf("server:            %s\n", server)
	fmt.Printf("case study:        %s\n", name)
	fmt.Printf("algorithm:         %s\n", report.Algorithm)
	fmt.Printf("cache hit:         %t\n", final.CacheHit)
	fmt.Printf("state space:       %.3g states (%d boolean bits)\n", report.States, report.StateBits)
	fmt.Printf("reachable states:  %.3g\n", report.ReachableStates)
	fmt.Printf("compile time:      %v\n", time.Duration(report.CompileNS))
	fmt.Printf("repair time:       %v\n", time.Duration(report.TotalNS))
	fmt.Printf("  step 1:          %v\n", time.Duration(report.Step1NS))
	fmt.Printf("  step 2:          %v\n", time.Duration(report.Step2NS))
	fmt.Printf("outer iterations:  %d\n", report.OuterIterations)
	fmt.Printf("invariant:         %.3g states\n", report.InvariantStates)
	fmt.Printf("fault-span:        %.3g states\n", report.FaultSpanStates)
	fmt.Printf("BDD nodes:         %d\n", report.BDDNodes)
	if report.Costed {
		fmt.Printf("achieved cost:     %.4g (weighted recovery transitions kept)\n", report.AchievedCost)
		fmt.Printf("cost removed:      %.4g (weighted original transitions deleted)\n", report.CostRemoved)
	}
	if report.Verified != nil {
		fmt.Printf("\nverification (%s backend):\n", report.Backend)
		for _, c := range report.Checks {
			mark := "ok"
			if !c.OK {
				mark = "FAIL"
				if c.Warning {
					mark = "warn"
				}
			}
			fmt.Printf("  [%-4s] %s", mark, c.Name)
			if c.Detail != "" {
				fmt.Printf(": %s", c.Detail)
			}
			fmt.Println()
		}
	}
	if explain {
		if report.Verified != nil {
			for _, c := range report.Checks {
				if c.Witness != nil {
					fmt.Printf("\nwitness for failed check:\n%s", c.Witness)
				}
			}
		}
		for _, tr := range report.Witnesses {
			fmt.Printf("\nrecovery demonstration:\n%s", tr)
		}
	}
	if report.Verified != nil && !*report.Verified {
		fatal(fmt.Errorf("verification failed"))
	}
}

func decodeView(resp *http.Response) service.JobView {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		var apiErr service.APIError
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Code != "" {
			hint := ""
			if apiErr.RetryAfterS > 0 {
				hint = fmt.Sprintf(" (retry after %ds, queue depth %d)", apiErr.RetryAfterS, apiErr.QueueDepth)
			}
			fatal(fmt.Errorf("server rejected job: %s: %s%s", apiErr.Code, apiErr.Message, hint))
		}
		fatal(fmt.Errorf("server responded %d: %s", resp.StatusCode, raw))
	}
	var view service.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		fatal(fmt.Errorf("decoding server response: %w", err))
	}
	return view
}

func getJob(server, id string) (service.JobView, error) {
	resp, err := http.Get(server + "/v1/jobs/" + id)
	if err != nil {
		return service.JobView{}, err
	}
	return decodeView(resp), nil
}

func pollEvents(server, id string, after int64) service.EventsPage {
	url := fmt.Sprintf("%s/v1/jobs/%s/events?poll=1&after=%d", server, id, after)
	resp, err := http.Get(url)
	if err != nil {
		fatal(fmt.Errorf("polling events: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		fatal(fmt.Errorf("polling events: server responded %d: %s", resp.StatusCode, raw))
	}
	var page service.EventsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		fatal(fmt.Errorf("decoding events page: %w", err))
	}
	return page
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
