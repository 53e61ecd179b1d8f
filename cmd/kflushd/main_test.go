package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"kflushing"
	"kflushing/internal/server"
)

// childEnv, when set, makes the test binary run kflushd's main with the
// arguments after its own name: the test drives a real kflushd process.
const childEnv = "KFLUSHD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Args = append([]string{"kflushd"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMStopsCleanly: a durable kflushd that receives SIGTERM
// closes its store and exits 0 with one shutdown line, and every record
// it acknowledged is searchable when the directory is opened again.
func TestSIGTERMStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	// A port free a moment ago rather than :0, so the address is known
	// before the child says where it listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-addr", addr, "-data", dir, "-durable", "-budget", "1")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // gone already unless the test failed
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var log []string
	for listening := false; !listening; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("kflushd exited before listening:\n%s", strings.Join(log, "\n"))
			}
			log = append(log, line)
			listening = strings.Contains(line, "kflushd listening on "+addr)
		case <-time.After(30 * time.Second):
			t.Fatalf("kflushd did not listen within 30s:\n%s", strings.Join(log, "\n"))
		}
	}

	// Enough records to run flush cycles at a 1 MiB budget: each has its
	// own user, so a user search finds exactly it.
	const n, batch = 6000, 250
	acked := make(map[uint64]kflushing.ID, n)
	for lo := 0; lo < n; lo += batch {
		var body bytes.Buffer
		for i := lo; i < lo+batch; i++ {
			fmt.Fprintf(&body, `{"keywords":["k%d"],"text":"record %d with some body text","user_id":%d}`+"\n", i%40, i, i+1)
		}
		resp, err := http.Post("http://"+addr+"/microblogs", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Ingested []server.IngestResult `json:"ingested"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(out.Ingested) != batch {
			t.Fatalf("POST: status %d, %d results, %v", resp.StatusCode, len(out.Ingested), err)
		}
		for i, r := range out.Ingested {
			acked[uint64(lo+i+1)] = r.KeywordID
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		log = append(log, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("kflushd after SIGTERM: %v, want exit 0\n%s", err, strings.Join(log, "\n"))
	}
	if !strings.Contains(log[len(log)-1], "kflushd: stopped cleanly") {
		t.Fatalf("last log line %q, want the shutdown line\n%s", log[len(log)-1], strings.Join(log, "\n"))
	}

	st, err := server.OpenStore(dir, kflushing.Options{Durable: true, MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for user, id := range acked {
		res, err := st.SearchUser(user, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != 1 || res.Items[0].MB.ID != id {
			t.Fatalf("user %d after the restart: %d items, want acked record %d", user, len(res.Items), id)
		}
	}
}
