package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// TestRefreshMapSingleFlight: concurrent refresh calls — the shape a
// failover produces, when every in-flight request trips EWRONGPART or a
// dead leader at once — coalesce into one fetch. Callers that found the
// fetch running return without issuing their own, counted by the
// suppressed-fetch metric.
func TestRefreshMapSingleFlight(t *testing.T) {
	var (
		dialMu sync.Mutex
		dials  int
	)
	gate := make(chan struct{})
	c := &Client{
		telem: &clientTelem{Handle: &obs.Handle{Reg: telemetry.NewRegistry()}},
		eps:   map[string]*endpoint{},
		dial: func(addr string) (*endpoint, error) {
			dialMu.Lock()
			dials++
			dialMu.Unlock()
			<-gate
			return nil, errors.New("test dialer: no fabric")
		},
	}
	c.view.Store(&view{m: &wire.ClusterMap{Ver: 1, Groups: [][]string{{"p0-l"}}}})

	inFetch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(inFetch)
		c.refreshMap(opCtx{}, "") // the one real fetch, held at the gate
	}()
	<-inFetch
	time.Sleep(20 * time.Millisecond) // let the leader goroutine reach the gate

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.refreshMap(opCtx{}, "")
		}()
	}
	// Give the followers time to find the fetch in flight, then release it.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("suppressed refresh returned %v, want nil (reuse the completed fetch)", err)
		}
	}
	if dials != 1 {
		t.Errorf("dial attempts = %d, want 1 (followers must not fetch again)", dials)
	}
	if got := c.telem.Reg.Counter(MetricMapSuppressed).Load(); got != 2 {
		t.Errorf("suppressed counter = %d, want 2", got)
	}
}
