// Command scsq-server serves a simulated SCSQ environment over TCP: it
// builds one scsq.Engine and binds it to the SCSQL wire protocol of
// internal/server, so remote clients (scsq-shell -connect, the serve
// bench, or any internal/server/client user) submit statements, stream
// results, inspect sys_* tables, and cancel sessions over the network.
//
//	scsq-server -addr :9292
//	scsq-server -addr :9292 -auth-token sesame -max-conns 256
//	scsq-server -addr :9292 -tls-cert server.crt -tls-key server.key
//
// SIGTERM (or SIGINT) starts a graceful drain: the listener closes, every
// client is told the server is draining, live sessions get -drain-grace to
// finish before cancellation, and the process exits once every connection
// is down.
package main

import (
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scsq"
	"scsq/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "scsq-server:", err)
		os.Exit(1)
	}
}

// run serves until a signal arrives on sig, then drains.
func run(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("scsq-server", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9292", "listen address")
		maxConns = fs.Int("max-conns", server.DefaultMaxConns, "max concurrent connections; excess is shed on accept")
		maxFrame = fs.Int("max-frame", 0, "max wire frame bytes (0 = 8 MiB default)")
		idle     = fs.Duration("idle", 0, "per-connection idle read deadline (0 = none)")
		grace    = fs.Duration("drain-grace", 5*time.Second, "how long live sessions may finish on SIGTERM before cancellation")
		token    = fs.String("auth-token", "", "require clients to present this token in the handshake")
		tlsCert  = fs.String("tls-cert", "", "TLS certificate file (with -tls-key enables TLS)")
		tlsKey   = fs.String("tls-key", "", "TLS private key file")
		mpiBuf   = fs.Int("mpibuf", 64*1024, "MPI driver send-buffer size in bytes")
		realNet  = fs.Bool("realtcp", false, "carry cross-cluster streams over real loopback sockets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []scsq.Option{scsq.WithMPIBufferBytes(*mpiBuf)}
	if *realNet {
		opts = append(opts, scsq.WithRealTCP())
	}
	eng, err := scsq.New(opts...)
	if err != nil {
		return err
	}
	defer eng.Close()

	cfg := server.Config{
		Addr:        *addr,
		MaxConns:    *maxConns,
		MaxFrame:    *maxFrame,
		IdleTimeout: *idle,
	}
	if *token != "" {
		want := []byte(*token)
		cfg.Auth = func(tok string) error {
			if subtle.ConstantTimeCompare([]byte(tok), want) != 1 {
				return fmt.Errorf("bad token")
			}
			return nil
		}
	}
	if *tlsCert != "" || *tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			return fmt.Errorf("load TLS keypair: %w", err)
		}
		cfg.TLS = &tls.Config{Certificates: []tls.Certificate{cert}}
	}

	srv := server.New(eng, cfg)
	bound, err := srv.Listen()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scsq-server: listening on %s (max %d conns, tls=%v, auth=%v)\n",
		bound, *maxConns, cfg.TLS != nil, cfg.Auth != nil)

	got := <-sig
	fmt.Fprintf(out, "scsq-server: %v — draining (grace %v)\n", got, *grace)
	if err := srv.Drain(*grace); err != nil {
		return err
	}
	fmt.Fprintln(out, "scsq-server: drained, bye")
	return nil
}
