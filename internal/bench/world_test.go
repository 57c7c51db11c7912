package bench

import (
	"context"
	"testing"
	"time"

	"sesemi/internal/gateway"
)

// TestLiveWorldGatewayCorrectness checks the gateway path end to end on the
// live world: responses decrypt and the batch envelope reaches the enclave.
func TestLiveWorldGatewayCorrectness(t *testing.T) {
	w, err := NewLiveWorld(LiveWorldConfig{Gateway: gateway.Config{MaxBatch: 4, MaxWait: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	resp, err := w.DoGateway(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Decrypt(resp); err != nil {
		t.Fatal(err)
	}
	direct, err := w.DoDirect(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.Decrypt(resp)
	b, _ := w.Decrypt(direct)
	if string(a) != string(b) {
		t.Fatal("gateway and direct paths disagree on the same input")
	}
}

// TestLiveWorldManyUsers: a KeyService connection pins one of the enclave's
// 64 TCSs until it closes, so setup must release each principal's client
// once it is provisioned, or a 64-user world never finishes building.
func TestLiveWorldManyUsers(t *testing.T) {
	const users = 64
	done := make(chan error, 1)
	go func() {
		w, err := NewLiveWorld(LiveWorldConfig{Users: users})
		if err != nil {
			done <- err
			return
		}
		defer w.Close()
		_, err = w.DoGatewayUser(context.Background(), users-1, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("a %d-user world did not serve a request within 30s", users)
	}
}
