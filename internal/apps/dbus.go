package apps

import (
	"errors"
	"fmt"
	"sync"

	"overhaul/internal/core"
	"overhaul/internal/ipc"
	"overhaul/internal/kernel"
)

// The paper (§IV-B) notes that higher-level IPC mechanisms built on OS
// primitives — D-Bus being the canonical example — are *automatically*
// covered by Overhaul's stamp propagation, because every message
// physically traverses a UNIX domain socket the kernel interposes on.
// Bus here is a miniature D-Bus daemon that proves the claim: a broker
// process owns one socket pair per connected client and routes messages
// between them; interaction stamps hop client → daemon → client with no
// bus-specific Overhaul code anywhere.

// Bus errors.
var (
	ErrNameTaken  = errors.New("dbus: name already owned")
	ErrNoSuchName = errors.New("dbus: no such name")
)

// Bus is the message-bus daemon.
type Bus struct {
	sys  *core.System
	proc *kernel.Process

	mu      sync.Mutex
	clients map[string]*BusClient // by well-known name
}

// BusClient is one connection to the bus.
type BusClient struct {
	bus  *Bus
	proc *kernel.Process
	name string
	// toDaemon/fromDaemon are the client-side and daemon-side ends of
	// the connection's socket pair.
	clientEnd *ipc.SocketEndpoint
	daemonEnd *ipc.SocketEndpoint
}

// Message is one routed bus message.
type Message struct {
	Sender string
	Dest   string
	Body   []byte
}

// NewBus starts the bus daemon as a headless system process.
func NewBus(sys *core.System) (*Bus, error) {
	proc, err := sys.LaunchHeadless("dbus-daemon")
	if err != nil {
		return nil, fmt.Errorf("dbus: %w", err)
	}
	return &Bus{sys: sys, proc: proc, clients: make(map[string]*BusClient)}, nil
}

// Daemon returns the bus daemon process.
func (b *Bus) Daemon() *kernel.Process { return b.proc }

// Attach connects a process to the bus under a well-known name,
// allocating the connection's socket pair.
func (b *Bus) Attach(proc *kernel.Process, name string) (*BusClient, error) {
	if name == "" {
		return nil, errors.New("dbus: empty name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, taken := b.clients[name]; taken {
		return nil, fmt.Errorf("%w: %s", ErrNameTaken, name)
	}
	clientEnd, daemonEnd := b.sys.Kernel.NewSocketPair().Ends()
	c := &BusClient{bus: b, proc: proc, name: name, clientEnd: clientEnd, daemonEnd: daemonEnd}
	b.clients[name] = c
	return c, nil
}

// Send routes a message from this client to the named destination: the
// client writes to its socket, the daemon reads it (adopting any fresher
// stamp), then writes it to the destination's socket (embedding the
// daemon's stamp), where the destination will read it.
func (c *BusClient) Send(dest string, body []byte) error {
	b := c.bus
	b.mu.Lock()
	target, ok := b.clients[dest]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchName, dest)
	}

	// Client half: message enters the client's connection socket.
	payload := append([]byte(c.name+"\x00"+dest+"\x00"), body...)
	if err := c.clientEnd.Send(c.proc.PID(), payload); err != nil {
		return fmt.Errorf("dbus send: %w", err)
	}
	// Daemon half: the broker process shuttles it across — this is
	// where stamps hop connection to connection.
	msg, err := c.daemonEnd.Recv(b.proc.PID())
	if err != nil {
		return fmt.Errorf("dbus route: %w", err)
	}
	if err := target.daemonEnd.Send(b.proc.PID(), msg); err != nil {
		return fmt.Errorf("dbus route: %w", err)
	}
	return nil
}

// Recv delivers the next message addressed to this client.
func (c *BusClient) Recv() (Message, error) {
	raw, err := c.clientEnd.Recv(c.proc.PID())
	if err != nil {
		return Message{}, fmt.Errorf("dbus recv: %w", err)
	}
	var sender, dest string
	rest := raw
	for i, part := 0, 0; part < 2; i++ {
		if i >= len(rest) {
			return Message{}, errors.New("dbus recv: malformed message")
		}
		if rest[i] == 0 {
			if part == 0 {
				sender = string(rest[:i])
			} else {
				dest = string(rest[:i])
			}
			rest = rest[i+1:]
			i = -1
			part++
		}
	}
	return Message{Sender: sender, Dest: dest, Body: rest}, nil
}

// Names returns the currently owned well-known names.
func (b *Bus) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.clients))
	for n := range b.clients {
		out = append(out, n)
	}
	return out
}
