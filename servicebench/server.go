package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"fppc/internal/cli"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/service"
)

// newServer builds a service.Server with the service.Config fppc-serve
// derives from its default flags (-workers 0 -cache 256
// -compile-workers 0 -memo 128 -timeout 30s -max-timeout 5m -journal 256
// -slo 2s -profiles 16 -profile-cpu 1s -profile-cooldown 30s), with the
// info-level text logger writing to io.Discard.
func newServer(ob *obs.Observer, fl *fleet.Fleet) (*service.Server, error) {
	logger, err := cli.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		Workers:         0,
		CacheEntries:    256,
		CompileWorkers:  0,
		MemoEntries:     128,
		DefaultTimeout:  30 * time.Second,
		MaxTimeout:      5 * time.Minute,
		JournalEntries:  256,
		SLO:             2 * time.Second,
		ProfileEntries:  16,
		ProfileCPU:      time.Second,
		ProfileCooldown: 30 * time.Second,
		Logger:          logger,
		Obs:             ob,
		Fleet:           fl,
	}), nil
}

// newFleet builds the 5-chip scenario fleet on the server's observer.
func newFleet(ob *obs.Observer) (*fleet.Fleet, error) {
	specs, err := fleet.ScenarioSpecs(5)
	if err != nil {
		return nil, err
	}
	return fleet.New(fleet.Config{Chips: specs, Obs: ob})
}

// harness serves a handler on a loopback port and drives it with
// keep-alive HTTP clients. The handler can be swapped between fleet
// rounds without dropping connections.
type harness struct {
	handler atomic.Pointer[http.Handler]
	ln      net.Listener
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
}

func newHarness(h http.Handler, clients int) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hn := &harness{ln: ln, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	hn.setHandler(h)
	hn.hs = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*hn.handler.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	hn.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
	go func() { hn.served <- hn.hs.Serve(ln) }()
	return hn, nil
}

func (hn *harness) setHandler(h http.Handler) { hn.handler.Store(&h) }

// post sends one request and returns the status and full body.
func (hn *harness) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hn.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hn.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// close stops the server, waiting for in-flight requests and for the
// serving goroutine to return.
func (hn *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := hn.hs.Shutdown(ctx)
	hn.client.CloseIdleConnections()
	if serr := <-hn.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("servicebench: stopping the server: %w", err)
	}
	return nil
}
