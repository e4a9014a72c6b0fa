package main

// The service subcommand: `sweep serve` turns this binary into a
// long-lived sweep node (HTTP results API over the point cache). It is
// dispatched from main before ordinary flag parsing, so the one-shot
// CLI keeps its own flag surface.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// parseSize parses a byte budget with an optional K/M/G/T suffix
// (binary multiples): "512M", "2G", "1048576".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
	case 'M', 'm':
		mult = 1 << 20
	case 'G', 'g':
		mult = 1 << 30
	case 'T', 't':
		mult = 1 << 40
	}
	if mult > 1 {
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want bytes, optionally suffixed K/M/G/T)", s)
	}
	return n * mult, nil
}

// runServe is the `sweep serve` subcommand.
func runServe(args []string) {
	fs := flag.NewFlagSet("sweep serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheFlag := fs.String("cache", "", "disk cache: directory, \"on\" (default, ~/.cache/lrscwait) or \"off\"")
	workers := fs.Int("workers", 0, "local compute pool width (0 = GOMAXPROCS)")
	partitions := fs.Int("partitions", 0, "kernel partitions per simulated system (see `sweep -help`)")
	quiet := fs.Bool("quiet", false, "suppress request logging on stderr")
	fs.Parse(args)
	if fs.NArg() > 0 {
		sweep.Fatal("sweep serve", fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if err := sweep.CheckPartitions(*partitions); err != nil {
		sweep.Fatal("sweep serve", err)
	}
	platform.SetDefaultPartitions(*partitions)

	cache, err := sweep.OpenCacheFlag(*cacheFlag, true)
	if err != nil {
		sweep.Fatal("sweep serve", err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	opts := []fabric.ServerOption{fabric.WithWorkers(*workers)}
	if !*quiet {
		opts = append(opts, fabric.WithLog(logf))
	}
	srv := fabric.NewServer(cache, opts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sweep.Fatal("sweep serve", err)
	}
	cacheDir := "off"
	if cache != nil {
		cacheDir = cache.Dir()
	}
	fmt.Fprintf(os.Stderr, "sweep serve: listening on %s (cache %s)\n", ln.Addr(), cacheDir)

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// In-flight computations get a grace window; idle keep-alives
		// drop immediately.
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		sweep.Fatal("sweep serve", err)
	}
	<-done
	fmt.Fprintln(os.Stderr, "sweep serve: shutdown complete")
}
