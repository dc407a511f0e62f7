// Command modserver runs one node of the system. Its default mode is a
// cluster shard: it serves a MOD store over TCP with the shard RPC of
// internal/modserver — the bound-exchange and distributed-refine query
// phases, point lookups, and journaled ingest that a cluster router
// (repro.NewRemoteShard pointed at -addr) drives:
//
//	modserver -store fleet.mod -addr :7700
//	modserver -r 0.5 -addr 127.0.0.1:7700      # start empty
//
// -shard-of splits a store file and serves only the hash partition this
// instance owns:
//
//	modserver -store fleet.mod -addr :7701 -shard-of 4 -shard-index 0
//	modserver -store fleet.mod -addr :7702 -shard-of 4 -shard-index 1
//	...
//
// Clients never speak the shard RPC. Single-node clients use `modserver
// serve`, which mounts the HTTP+JSON gateway (internal/gateway) over a
// local engine; with -shards the same gateway fronts a cluster of
// modserver shard processes. See the serve subcommand's -help:
//
//	modserver serve -http :8080 -r 0.5
//	modserver serve -http :8443 -tls-cert gw.pem -tls-key gw.key \
//	    -shards shard0:7701,shard1:7702 -shard-ca ca.pem -shard-token s3cr3t
//
// -read-timeout and -max-line harden the shard: a stalled connection is
// closed at the read deadline, an oversized request line is rejected with
// a diagnostic. -tls-cert/-tls-key serve the shard RPC over TLS, and
// -token requires every connection to authenticate with a bearer token
// before its first operation.
//
// Durability: -wal-dir journals every applied ingest batch to a
// write-ahead log with periodic snapshots, so a crash loses nothing that
// was acknowledged (-wal-sync extends that through power loss). A fresh
// -wal-dir seeds the journal from the store built above; restarting with
// -resume recovers the store from the journal instead — byte-identical
// to the pre-crash store — and continues appending:
//
//	modserver -store fleet.mod -wal-dir /var/lib/mod/wal     # first boot
//	modserver -wal-dir /var/lib/mod/wal -resume              # every restart
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting,
// in-flight requests finish, idle connections are closed, and the WAL
// takes a final fsync before the process exits.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	runShard(os.Args[1:])
}

func runShard(args []string) {
	fs := flag.NewFlagSet("modserver", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:7700", "listen address")
		storePath    = fs.String("store", "", "optional store file to preload (binary format)")
		r            = fs.Float64("r", 0.5, "uncertainty radius when starting empty")
		workers      = fs.Int("workers", 0, "query engine worker count (0 = one per CPU)")
		readTimeout  = fs.Duration("read-timeout", modserver.DefaultReadTimeout, "per-connection read deadline (negative disables)")
		maxLine      = fs.Int("max-line", modserver.MaxLine, "max request line size in bytes")
		shardOf      = fs.Int("shard-of", 0, "serve one hash partition of the store: total shard count (0 = whole store)")
		shardIndex   = fs.Int("shard-index", 0, "which partition to serve when -shard-of is set")
		walDir       = fs.String("wal-dir", "", "journal ingest batches to a write-ahead log in this directory")
		walSync      = fs.Bool("wal-sync", false, "fsync the WAL after every appended batch")
		walSnapEvery = fs.Int("wal-snapshot-every", 64, "rotate the WAL into a fresh snapshot after this many batches (0 disables)")
		resume       = fs.Bool("resume", false, "recover the store from -wal-dir instead of -store/-r, then continue the journal")
		tlsCert      = fs.String("tls-cert", "", "serve TLS with this PEM certificate (requires -tls-key)")
		tlsKey       = fs.String("tls-key", "", "PEM private key for -tls-cert")
		token        = fs.String("token", "", "require this bearer token on every connection")
		drain        = fs.Duration("drain", 15*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM")
	)
	fs.Parse(args)

	walOpts := wal.Options{Sync: *walSync, SnapshotEvery: *walSnapEvery}
	if *resume && *shardOf > 0 {
		fatal(fmt.Errorf("-resume recovers the journaled store; -shard-of must not be set"))
	}
	store, log, err := openStore(*storePath, *r, *resume, *walDir, walOpts)
	if err != nil {
		fatal(err)
	}
	if *shardOf > 0 {
		if *shardIndex < 0 || *shardIndex >= *shardOf {
			fatal(fmt.Errorf("-shard-index %d out of range for -shard-of %d", *shardIndex, *shardOf))
		}
		parts, err := cluster.SplitStore(store, *shardOf, cluster.Hash{})
		if err != nil {
			fatal(err)
		}
		store = parts[*shardIndex]
		fmt.Printf("modserver: serving hash shard %d/%d\n", *shardIndex, *shardOf)
	}
	if *walDir != "" && !*resume {
		// Fresh journal: the store built above (post-split, so each shard
		// journals exactly what it serves) becomes the recovery base.
		if log, err = wal.Create(*walDir, store, walOpts); err != nil {
			fatal(err)
		}
		fmt.Printf("modserver: journaling to %s (sync %v, snapshot every %d)\n",
			*walDir, *walSync, *walSnapEvery)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	l, scheme, err := maybeTLS(l, *tlsCert, *tlsKey)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("modserver: %d trajectories, listening on %s (%s, read timeout %v)\n",
		store.Len(), l.Addr(), scheme, *readTimeout)
	opts := modserver.Options{
		ReadTimeout:  *readTimeout,
		MaxLineBytes: *maxLine,
		Token:        *token,
	}
	if log != nil {
		opts.Journal = log
	}
	srv := modserver.NewServerWith(store, engine.New(*workers), opts)
	onSignal(func(ctx context.Context) error { return srv.Shutdown(ctx) }, *drain)
	err = srv.Serve(l)
	closeWAL(log)
	if err != nil && err != modserver.ErrServerClosed {
		fatal(err)
	}
}

// openStore builds the initial store from the shared -store/-r/-resume
// flags. On the -resume path the returned log continues the recovered
// journal; otherwise the caller creates a fresh journal (possibly after
// splitting the store) when -wal-dir is set.
func openStore(storePath string, r float64, resume bool, walDir string, walOpts wal.Options) (*mod.Store, *wal.Log, error) {
	switch {
	case resume:
		if walDir == "" {
			return nil, nil, fmt.Errorf("-resume requires -wal-dir")
		}
		if storePath != "" {
			return nil, nil, fmt.Errorf("-resume recovers the journaled store; -store must not be set")
		}
		log, store, info, err := wal.Open(walDir, walOpts)
		if err != nil {
			return nil, nil, err
		}
		torn := ""
		if info.Torn {
			torn = ", torn tail truncated"
		}
		fmt.Printf("modserver: recovered %s at batch %d (snapshot %d + %d replayed%s)\n",
			walDir, info.Seq(), info.SnapshotSeq, info.Replayed, torn)
		return store, log, nil
	case storePath != "":
		f, err := os.Open(storePath)
		if err != nil {
			return nil, nil, err
		}
		store, err := mod.LoadBinary(f)
		f.Close()
		return store, nil, err
	default:
		store, err := mod.NewUniformStore(r)
		return store, nil, err
	}
}

// maybeTLS wraps l for TLS serving when a cert/key pair is configured.
func maybeTLS(l net.Listener, certFile, keyFile string) (net.Listener, string, error) {
	if certFile == "" && keyFile == "" {
		return l, "plaintext", nil
	}
	if certFile == "" || keyFile == "" {
		return nil, "", fmt.Errorf("-tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, "", err
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	return tls.NewListener(l, cfg), "tls", nil
}

// onSignal arranges a graceful drain on SIGINT/SIGTERM: shutdown stops
// accepting, lets in-flight work finish, and force-closes whatever is
// still alive when the drain budget expires.
func onSignal(shutdown func(context.Context) error, drain time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("modserver: %v — draining (budget %v)\n", s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "modserver: drain:", err)
		}
	}()
}

// closeWAL takes the journal's final fsync so an acknowledged batch
// survives the exit even without -wal-sync.
func closeWAL(log *wal.Log) {
	if log == nil {
		return
	}
	if err := log.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "modserver: wal close:", err)
		return
	}
	fmt.Println("modserver: WAL synced and closed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modserver:", err)
	os.Exit(1)
}
