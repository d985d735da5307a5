package wire

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
)

// TestReadMessageDoesNotAlias: frames of other sizes, read afterwards
// into the same pooled memory, leave an earlier message unchanged.
func TestReadMessageDoesNotAlias(t *testing.T) {
	g := msgGen{rand.New(rand.NewSource(5))}
	var want []Message
	for len(want) < 6 {
		if m := g.message(TypeCSIReport); len(m.(*CSIReport).Batch.Samples) > 0 {
			want = append(want, m)
		}
	}
	for _, typ := range msgTypes[1:] {
		want = append(want, g.message(typ))
	}
	var stream bytes.Buffer
	for _, m := range want {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	var got []Message
	for stream.Len() > 0 {
		m, err := ReadMessage(&stream)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d messages, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !sameMessage(want[i], got[i]) {
			t.Errorf("message %d (%s) changed after later reads:\n%#v\n%#v", i, want[i].Type(), want[i], got[i])
		}
	}
}

// TestConcurrentStreams: goroutines writing and reading streams of their
// own at once share the frame pool without mixing frames up.
func TestConcurrentStreams(t *testing.T) {
	const streams, perStream = 8, 40
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		g := msgGen{rand.New(rand.NewSource(int64(100 + s)))}
		msgs := make([]Message, perStream)
		for i := range msgs {
			msgs[i] = g.message(TypeCSIReport)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := net.Pipe()
			written := make(chan struct{})
			defer func() { b.Close(); <-written }()
			go func() {
				defer close(written)
				defer a.Close()
				for _, m := range msgs {
					if err := WriteMessage(a, m); err != nil {
						t.Errorf("stream %d: %v", s, err)
						return
					}
				}
			}()
			for i, want := range msgs {
				got, err := ReadMessage(b)
				if err != nil {
					t.Errorf("stream %d, message %d: %v", s, i, err)
					return
				}
				if !sameMessage(want, got) {
					t.Errorf("stream %d, message %d differs from what was written", s, i)
				}
			}
		}()
	}
	wg.Wait()
}
