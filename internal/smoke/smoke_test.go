package smoke

import (
	"net"
	"testing"
)

// TestFreePortBindsBothProtocols: the address handed out can be bound on
// TCP (-http, -federate-transport tcp) and on UDP (-listen, -federate).
func TestFreePortBindsBothProtocols(t *testing.T) {
	addr, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("tcp %s: %v", addr, err)
	}
	defer l.Close()
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("udp %s: %v", addr, err)
	}
	defer pc.Close()
}

func TestSample(t *testing.T) {
	page := []byte("# TYPE sdpd_requests_total counter\nsdpd_requests_total 42\n" +
		"sdpd_request_seconds_bucket{le=\"0.001\"} 7\nsdpd_requests_total_extra 9\n")
	if v, ok := Sample(page, "sdpd_requests_total"); !ok || v != 42 {
		t.Fatalf("sdpd_requests_total = %v, %v", v, ok)
	}
	for _, absent := range []string{"sdpd_request_seconds_bucket", "sdpd_requests", "nope"} {
		if _, ok := Sample(page, absent); ok {
			t.Errorf("Sample found %q, which is no label-free series of the page", absent)
		}
	}
}
