package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// twoCampaignRegistry hosts two independent campaigns ("alpha", "beta")
// behind one server.
func twoCampaignRegistry(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{Dir: t.TempDir(), Logf: t.Logf})
	for _, name := range []string{"alpha", "beta"} {
		if _, err := reg.Add(name, Config{Campaign: testCampaign(), ShardSize: 3, LeaseTTL: time.Second}); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	t.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return reg, srv
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return res.StatusCode
}

// TestRegistryCrashIsolation is the multi-campaign contract: one
// campaign's crash turns only its own routes into 503 + Retry-After —
// the sibling keeps serving, /healthz stays green (the process is fine),
// /readyz drops out naming the down campaign, and a manual Restart
// brings everything back.
func TestRegistryCrashIsolation(t *testing.T) {
	reg, srv := twoCampaignRegistry(t)

	// Run alpha to completion so its stream has bytes, then crash it.
	runWorkers(t, srv.URL+"/c/alpha", 2)
	a := reg.Get("alpha")
	<-a.Done()
	a.mu.Lock()
	a.crash("test")
	a.mu.Unlock()
	// Wait for the supervisor to mark the campaign down (no AutoRestart).
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get("alpha") != nil {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never marked alpha down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := http.Get(srv.URL + "/c/alpha/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || res.Header.Get("Retry-After") == "" {
		t.Fatalf("crashed campaign route: %s, Retry-After %q; want 503 with a hint",
			res.Status, res.Header.Get("Retry-After"))
	}
	var st Status
	if code := getJSON(t, srv.URL+"/c/beta/v1/status", &st); code != http.StatusOK {
		t.Fatalf("sibling campaign status: %d, want 200", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz went red over one campaign crash")
	}
	var ready struct {
		Ready bool     `json:"ready"`
		Down  []string `json:"down"`
	}
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with a campaign down, want 503", code)
	}
	if ready.Ready || len(ready.Down) != 1 || ready.Down[0] != "alpha" {
		t.Fatalf("readyz body %+v, want down=[alpha]", ready)
	}
	var infos []CampaignInfo
	getJSON(t, srv.URL+"/v1/campaigns", &infos)
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[0].Live || !infos[1].Live {
		t.Fatalf("campaign listing %+v, want alpha down / beta live", infos)
	}

	// The sibling still completes while alpha is down, via its own routes.
	runWorkers(t, srv.URL+"/c/beta", 2)
	<-reg.Get("beta").Done()

	// Restart recovers alpha from its own directory with state intact.
	if _, err := reg.Restart("alpha"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz after restart: %d %+v, want ready", code, ready)
	}
	res, err = http.Get(srv.URL + "/c/alpha/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if want := singleProcessBytes(t); !bytes.Equal(body, want) {
		t.Fatalf("restarted alpha stream: %d bytes, want %d", len(body), len(want))
	}
	if reg.Restarts("alpha") != 1 {
		t.Fatalf("Restarts(alpha) = %d, want 1", reg.Restarts("alpha"))
	}
}

// TestRegistryAddFailureIsolation pins open-failure isolation: a campaign
// whose directory holds a foreign manifest fails Add without hosting
// anything, and siblings are untouched.
func TestRegistryAddFailureIsolation(t *testing.T) {
	reg, srv := twoCampaignRegistry(t)

	// Seed a directory with a different campaign's manifest.
	dir := t.TempDir()
	other := testCampaign()
	other.Seed = 99
	c, err := Open(Config{Campaign: other, Dir: dir, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := reg.Add("gamma", Config{Campaign: testCampaign(), Dir: dir, ShardSize: 3}); err == nil {
		t.Fatalf("Add accepted a directory holding a foreign campaign")
	}
	if names := reg.Names(); len(names) != 2 {
		t.Fatalf("failed Add left residue: %v", names)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d after an isolated Add failure, want 200", code)
	}
	res, _ := http.Get(srv.URL + "/c/gamma/v1/status")
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unhosted campaign route: %d, want 404", res.StatusCode)
	}
}

// TestRegistryAutoRestart lets the supervisor recover a crashed campaign
// on its own: after the restart delay the campaign is live again, its
// state recovered from the manifest.
func TestRegistryAutoRestart(t *testing.T) {
	reg := NewRegistry(RegistryConfig{
		Dir: t.TempDir(), AutoRestart: 10 * time.Millisecond, Logf: t.Logf,
	})
	defer reg.Close()
	c, err := reg.Add("hunt", Config{Campaign: testCampaign(), ShardSize: 3, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	runWorkers(t, srv.URL, 2)
	<-c.Done()
	c.mu.Lock()
	c.crash("test")
	c.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Restarts("hunt") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never auto-restarted the campaign")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st Status
	if code := getJSON(t, srv.URL+"/v1/status", &st); code != http.StatusOK || !st.Merged {
		t.Fatalf("auto-restarted campaign: code %d, status %+v; want merged", code, st)
	}
}

// TestRegistryDefaultMount pins the flat-route contract: the first added
// campaign answers /v1/..., and Mount switches it.
func TestRegistryDefaultMount(t *testing.T) {
	reg, srv := twoCampaignRegistry(t)
	var st Status
	getJSON(t, srv.URL+"/v1/status", &st)
	alpha := reg.Get("alpha").Status()
	if st.Fingerprint != alpha.Fingerprint {
		t.Fatalf("flat route does not serve the first campaign")
	}
	// Same campaign config, so distinguish by completing only beta.
	runWorkers(t, srv.URL+"/c/beta", 2)
	<-reg.Get("beta").Done()
	if err := reg.Mount("beta"); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	getJSON(t, srv.URL+"/v1/status", &st)
	if !st.Merged {
		t.Fatalf("flat route still serves alpha after Mount(beta): %+v", st)
	}
	if err := reg.Mount("nope"); err == nil {
		t.Fatalf("Mount accepted an unhosted campaign")
	}
}

// TestRegistryRejectsBadNames bounds hosted names to path-safe tokens.
func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Dir: t.TempDir()})
	defer reg.Close()
	for _, name := range []string{"", ".", "../evil", "a/b", "a b", "-lead"} {
		if _, err := reg.Add(name, Config{Campaign: testCampaign()}); err == nil {
			t.Errorf("Add(%q) accepted a bad name", name)
		}
	}
	// A rejected name must create nothing on disk.
	entries, err := os.ReadDir(reg.cfg.Dir)
	if err == nil && len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("bad names left directories: %v", names)
	}
}

// TestRegistryStateDirsAreIndependent double-checks the per-campaign
// layout: each hosted campaign owns RegistryConfig.Dir/<name> with its
// own manifest and shard log.
func TestRegistryStateDirsAreIndependent(t *testing.T) {
	reg, srv := twoCampaignRegistry(t)
	runWorkers(t, srv.URL+"/c/alpha", 2)
	<-reg.Get("alpha").Done()
	root := reg.cfg.Dir
	if _, err := os.Stat(filepath.Join(root, "alpha", "records.jsonl")); err != nil {
		t.Fatalf("alpha state dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "beta", "manifest.jsonl")); err != nil {
		t.Fatalf("beta state dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "beta", "records.jsonl")); err == nil {
		t.Fatalf("beta has a merged result without ever running: %s", filepath.Join(root, "beta"))
	}
}
