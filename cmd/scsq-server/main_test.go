package main

import (
	"bufio"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"

	"scsq/internal/server/client"
)

// TestServeOneStatementAndDrain drives the command the way an operator
// does: start it on an ephemeral port, read the bound address off its first
// line, run a statement through the client, deliver SIGTERM, and expect the
// drain to finish with the farewell line and no error.
func TestServeOneStatementAndDrain(t *testing.T) {
	pr, pw := io.Pipe()
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-auth-token", "sesame", "-drain-grace", "2s"}, pw, sig)
		pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("server printed nothing; run returned %v", <-done)
	}
	first := lines.Text()
	_, rest, ok := strings.Cut(first, "listening on ")
	if !ok || !strings.Contains(first, "auth=true") {
		t.Fatalf("first line %q does not announce the address and auth", first)
	}
	addr, _, _ := strings.Cut(rest, " ")

	if _, err := client.Dial(addr, client.Options{Token: "wrong"}); err == nil {
		t.Error("a wrong token was accepted")
	}
	c, err := client.Dial(addr, client.Options{Token: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(`select x*x from integer x where x in iota(1,8) and x > 5;`, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, fin, err := h.Wait()
	if err != nil || fin.Err != "" {
		t.Fatalf("session ended %+v, %v", fin, err)
	}
	var got []any
	for _, r := range rows {
		got = append(got, r.Value)
	}
	if len(got) != 3 || got[0] != int64(36) || got[2] != int64(64) {
		t.Errorf("rows = %v, want 36 49 64", got)
	}

	sig <- syscall.SIGTERM
	var tail []string
	for lines.Scan() {
		tail = append(tail, lines.Text())
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(tail); n != 2 || !strings.Contains(tail[0], "draining (grace 2s)") || tail[1] != "scsq-server: drained, bye" {
		t.Errorf("drain printed %q", tail)
	}
	if _, err := client.Dial(addr, client.Options{Token: "sesame"}); err == nil {
		t.Error("the drained server still accepts connections")
	}
	c.Close()
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-max-conns", "many"},
		{"-tls-cert", "/nonexistent.crt", "-tls-key", "/nonexistent.key"},
		{"-addr", "not-an-address"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
