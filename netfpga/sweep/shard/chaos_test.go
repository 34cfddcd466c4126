package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"
)

// frames builds a synthetic worker output stream of n JSON frames.
func frames(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, map[string]int{"frame": i}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// chaosRun pushes a canned stream through wrapChaos and returns every
// byte that came out plus the terminal error.
func chaosRun(t *testing.T, m chaosMix, stream string, raw []byte) ([]byte, string) {
	t.Helper()
	ep := &Endpoint{Name: "fake", In: io.Discard, Out: bytes.NewReader(raw), Kill: func() error { return nil }}
	out, err := io.ReadAll(wrapChaos(ep, m, stream).Out)
	if err == nil {
		err = io.EOF
	}
	return out, err.Error()
}

// TestChaosSchedulePinned pins what `-chaos 7` and `-chaos 42` inject:
// the first 16 fates of one stream each under the default mix, as the
// fault letters (k kill, h hang, x drop, t truncate, c corrupt, d
// delay, u dup) and the parameter entropy each frame drew, plus the
// delay and the flipped bit that entropy gives whenever a frame is
// delayed or corrupted. A change to the stream, the draw order or the
// mixer shows here first.
func TestChaosSchedulePinned(t *testing.T) {
	type fate struct {
		faults string
		aux    uint64
		delay  time.Duration
		bit    uint
	}
	for _, tc := range []struct {
		seed   uint64
		stream string
		want   [16]fate
	}{
		{7, "proc:0#1", [16]fate{
			{"", 0x5c240522a7f11c89, 19456713, 4},
			{"", 0x1b8d49af6f0fbef3, 28460599, 3},
			{"", 0xb32e01641ad2e8a7, 10619583, 5},
			{"", 0xa33203419c7f1aff, 21782558, 1},
			{"", 0xad2ba2eda0ad5649, 4064551, 5},
			{"", 0x75d9bec82b49cbf7, 1902520, 0},
			{"d", 0xa238594284f632c9, 27247552, 6},
			{"", 0xc0ae4b967a6a6800, 9854829, 4},
			{"", 0x236223ae29243a0b, 17376995, 3},
			{"", 0x9686921bae2f7503, 5451879, 3},
			{"", 0x65191879385a2ce8, 2662922, 2},
			{"", 0x8395cbf8fd6de652, 4594252, 0},
			{"x", 0x244230fc467ec082, 981141, 0},
			{"", 0xbe796a7ddfd53b0a, 12966690, 1},
			{"", 0x58a3ea76794876b6, 21669298, 2},
			{"u", 0x5d78cdaeb0654c67, 28773151, 5},
		}},
		{42, "tcp:0#1", [16]fate{
			{"", 0xa0ae25283168df7c, 18636659, 3},
			{"", 0x1df3464abaa25b92, 5391844, 2},
			{"u", 0xe69a78fa7332c9b6, 12752821, 3},
			{"", 0x157a12ca45f982c1, 9901087, 5},
			{"d", 0x4e4eb37e43781d0b, 5737025, 4},
			{"d", 0xe8c68e3783e69167, 5884562, 4},
			{"u", 0x6c6816198245de24, 24827207, 7},
			{"", 0x1a00f1c2ecf51fc3, 2180751, 1},
			{"d", 0x8185fcd39660912e, 161148, 7},
			{"x", 0x44d364969f4dfdf0, 6394803, 5},
			{"", 0xdabfaf7850b5964f, 21279755, 4},
			{"", 0x7916f0c5d09fcf31, 26875417, 1},
			{"", 0xfa749641aeff3689, 2918929, 7},
			{"", 0x1589672e067f6a02, 23713208, 1},
			{"", 0xe708e3765fa6eddb, 17481323, 1},
			{"", 0xf314bb970f466abe, 3718413, 1},
		}},
	} {
		m := defaultChaos(tc.seed)
		s := newChaosStream(tc.seed, tc.stream)
		// Certain corruption and delay on the same stream: the fates
		// change, the entropy and so the parameters do not.
		params := chaosMix{corrupt: 1, delay: 1, delayMax: m.delayMax}
		ps := newChaosStream(tc.seed, tc.stream)
		for i, want := range tc.want {
			var got fate
			for j, p := range []float64{m.kill, m.hang, m.drop, m.truncate, m.corrupt, m.delay, m.dup} {
				if s.chance(p) {
					got.faults += string("khxtcdu"[j])
				}
			}
			got.aux = s.next()
			f := params.fault(ps, []byte{0, 0, 0, 1, 0})
			got.delay = f.delay
			for got.bit = 0; got.bit < 8 && f.out[4] != 1<<got.bit; got.bit++ {
			}
			if got != want {
				t.Errorf("seed %d stream %s frame %d: %+v, want %+v", tc.seed, tc.stream, i, got, want)
			}
		}
	}
}

func TestZeroConfigPassesThrough(t *testing.T) {
	raw := frames(t, 50)
	out, _ := chaosRun(t, chaosMix{}, "w#1", raw)
	if !bytes.Equal(out, raw) {
		t.Fatalf("zero mix altered the stream: %d bytes in, %d out", len(raw), len(out))
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	m := chaosMix{
		seed: 42, drop: 0.15, dup: 0.15, corrupt: 0.1, truncate: 0.02,
		delay: 0.2, delayMax: time.Millisecond, kill: 0.02,
	}
	raw := frames(t, 200)
	out1, err1 := chaosRun(t, m, "w#1", raw)
	out2, err2 := chaosRun(t, m, "w#1", raw)
	if !bytes.Equal(out1, out2) || err1 != err2 {
		t.Fatalf("same seed and stream produced different fault schedules: %d vs %d bytes (%q vs %q)",
			len(out1), len(out2), err1, err2)
	}
	if bytes.Equal(out1, raw) {
		t.Fatal("chaos mix injected no faults over 200 frames")
	}
}

func TestSeedAndStreamChangeSchedule(t *testing.T) {
	m := chaosMix{seed: 42, drop: 0.2, dup: 0.2, corrupt: 0.2}
	raw := frames(t, 200)
	base, _ := chaosRun(t, m, "w#1", raw)
	m2 := m
	m2.seed = 43
	otherSeed, _ := chaosRun(t, m2, "w#1", raw)
	otherStream, _ := chaosRun(t, m, "w#2", raw)
	if bytes.Equal(base, otherSeed) {
		t.Fatal("changing the seed did not change the fault schedule")
	}
	if bytes.Equal(base, otherStream) {
		t.Fatal("changing the stream name did not change the fault schedule")
	}
}

func TestKillSeversAndKillsInner(t *testing.T) {
	killed := false
	ep := &Endpoint{
		Name: "fake",
		In:   io.Discard,
		Out:  bytes.NewReader(frames(t, 10)),
		Kill: func() error { killed = true; return nil },
	}
	w := wrapChaos(ep, chaosMix{seed: 1, kill: 1}, "w#1")
	if _, err := io.ReadAll(w.Out); err == nil {
		t.Fatal("kill fault left the stream readable to EOF without error")
	}
	if !killed {
		t.Fatal("kill fault did not reach the inner endpoint's Kill")
	}
}

func TestCorruptedFramesStayFramed(t *testing.T) {
	// Corruption flips payload bytes, never the length prefix: the
	// stream must stay parseable frame-by-frame until it is severed.
	ep := &Endpoint{Name: "fake", In: io.Discard, Out: bytes.NewReader(frames(t, 100))}
	w := wrapChaos(ep, chaosMix{seed: 7, corrupt: 0.5}, "w#1")
	parsed, corrupt := 0, 0
	for {
		var v json.RawMessage
		err := ReadFrame(w.Out, &v)
		if err == io.EOF {
			break
		}
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("corrupted stream produced a non-FrameError: %v", err)
			}
			corrupt++
			continue
		}
		parsed++
	}
	if corrupt == 0 {
		t.Fatal("50% corruption over 100 frames corrupted nothing")
	}
	if parsed == 0 {
		t.Fatal("no frame survived 50% corruption — framing itself broke")
	}
}

func TestChaosDialStreamsPerIncarnation(t *testing.T) {
	m := chaosMix{seed: 9, drop: 0.3}
	raw := frames(t, 100)
	mk := func() func() (*Endpoint, error) {
		return func() (*Endpoint, error) {
			return &Endpoint{Name: "w", In: io.Discard, Out: bytes.NewReader(raw)}, nil
		}
	}
	dial := chaosDial("w", mk(), m)
	ep1, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	out1, _ := io.ReadAll(ep1.Out)
	ep2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := io.ReadAll(ep2.Out)
	if bytes.Equal(out1, out2) {
		t.Fatal("two incarnations drew the same fault schedule")
	}
	// A fresh chaosDial replays incarnation streams from #1.
	ep3, err := chaosDial("w", mk(), m)()
	if err != nil {
		t.Fatal(err)
	}
	out3, _ := io.ReadAll(ep3.Out)
	if !bytes.Equal(out1, out3) {
		t.Fatal("incarnation 1 did not replay byte-for-byte across runs")
	}
}
