package coll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file pins the simulated timing of every shared-memory operation (SM
// and SOLO, the three composed ones included) and of Comm.Barrier bit for
// bit. The values were recorded while each operation's helper was a
// goroutine whose straight-line body parked once per modelled cost, and the
// barrier a loop of twelve blocking waits; they are the contract the
// step-driven forms keep. Each row holds math.Float64bits of the completion
// time, an FNV-1a hash over every rank's own return time in rank order, and
// an FNV-1a hash over the trace event stream (the "copy" send/deliver pairs
// of the cross-rank copies) in record order. CI runs the file a second time
// under HAN_ARENA_DEBUG=1. On a mismatch the failure prints the row in table
// syntax.

type shmBits struct{ end, ranks, trace uint64 }

func (b shmBits) String() string {
	return fmt.Sprintf("{%#016x, %#016x, %#016x}", b.end, b.ranks, b.trace)
}

// goldenNuma is Mini with two sockets per node, so node-wide copies cross
// the UPI link.
func goldenNuma(nodes, ppn int) cluster.Spec {
	s := cluster.Mini(nodes, ppn)
	s.SocketsPerNode = 2
	s.SocketBusBandwidth = 3e9
	s.UPIBandwidth = 1.5e9
	return s
}

// goldenBits runs body on every rank of a fresh traced world on spec.
func goldenBits(t *testing.T, spec cluster.Spec, body func(p *mpi.Proc)) shmBits {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Tracer = trace.New()
	done := make([]sim.Time, spec.Ranks())
	w.Start(func(p *mpi.Proc) {
		body(p)
		done[p.Rank] = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	word := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ranks := fnv.New64a()
	for _, d := range done {
		word(ranks, math.Float64bits(float64(d)))
	}
	tr := fnv.New64a()
	for _, ev := range w.Tracer.Events() {
		word(tr, math.Float64bits(ev.T))
		word(tr, uint64(ev.Rank))
		tr.Write([]byte(ev.Kind))
		tr.Write([]byte(ev.Name))
		word(tr, uint64(ev.Size))
		word(tr, uint64(int64(ev.Peer)))
	}
	return shmBits{math.Float64bits(float64(eng.Now())), ranks.Sum64(), tr.Sum64()}
}

// shmCase is one operation of one module; rooted ones run from the node
// leader and from a non-leader.
type shmCase struct {
	name   string
	rooted bool
	issue  func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request
}

var shmCases = []shmCase{
	{"bcast", true, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Ibcast(p, c, mpi.Phantom(n), root, Params{})
	}},
	{"reduce", true, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Ireduce(p, c, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, root, Params{})
	}},
	{"allreduce", false, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Iallreduce(p, c, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Params{})
	}},
	{"gather", true, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Igather(p, c, mpi.Phantom(n), mpi.Phantom(n*c.Size()), root, Params{})
	}},
	{"allgather", false, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Iallgather(p, c, mpi.Phantom(n), mpi.Phantom(n*c.Size()), Params{})
	}},
	{"scatter", true, func(mod Module, p *mpi.Proc, c *mpi.Comm, n, root int) *mpi.Request {
		return mod.Iscatter(p, c, mpi.Phantom(n*c.Size()), mpi.Phantom(n), root, Params{})
	}},
}

var goldenShmSpecs = []struct {
	name string
	spec cluster.Spec
}{
	{"mini", cluster.Mini(4, 4)},
	{"numa", goldenNuma(4, 8)},
}

var goldenShmSizes = []int{1 << 10, 256 << 10, 2 << 20}

// goldenShm maps "module/op/root/spec" to the bits at each of
// goldenShmSizes. Every rank runs the operation on its node communicator,
// ranks entering a microsecond apart in local-rank order, so all four nodes
// run it side by side.
var goldenShm = map[string][3]shmBits{
	"sm/bcast/0/mini":       {{0x3ed27ae80ed8c712, 0xbb6a7ccd920d5345, 0x628c47655d6a98e5}, {0x3f315579147a1bb6, 0x17a673fda620fcb5, 0x240432ef44ed3511}, {0x3f6159aad2624931, 0x20257859748792e5, 0x61e6ba8278c46901}},
	"sm/bcast/0/numa":       {{0x3ee2860076896027, 0x7178cdd4670d74d5, 0x7334d2980229b08d}, {0x3f478447bf78edf1, 0xac56104ecc631a6d, 0xcfcd54c9ee51cd01}, {0x3f777365efe59d46, 0xd22a9e28085b7ef5, 0xa1ba7d2ec3d85bd9}},
	"sm/bcast/2/mini":       {{0x3ed4060b20b4445a, 0x65e0c588bc4c8c65, 0x428936f97203c8f1}, {0x3f31770703bb8791, 0x92f90645b4345b45, 0xd7ed4cd3fd127b6d}, {0x3f615ddc904a76ad, 0xc104c23be52d962d, 0xaa29e10db9212641}},
	"sm/bcast/2/numa":       {{0x3ee2860076896027, 0xa5276318518625d5, 0x6e77e6176a0861c9}, {0x3f47950eb719a3de, 0x2a706884f9e3a4b5, 0x300ae69ed9a906b5}, {0x3f77757eced9b404, 0x1b9b93ece726507d, 0xc5556449c39ed7d1}},
	"sm/reduce/0/mini":      {{0x3ee23ca123af3a49, 0x7034eb4b9b4caab5, 0x58586814c14e18d1}, {0x3f5397c003435f02, 0xd9dd04bed1b2c8a5, 0x7f33c57539f41251}, {0x3f8392a363d06793, 0xdd4c327fc36d603d, 0xaa7836aaff044b89}},
	"sm/reduce/0/numa":      {{0x3ef43323fff5aa4b, 0x35d09defdc3301ad, 0x5405b7043b6c9e75}, {0x3f695a277720ac2b, 0x80fa5c11ec071bc5, 0xa18d24065d6b044d}, {0x3f9955c364519c8f, 0x3fbec2be78c94ca5, 0xe84238cb93647d75}},
	"sm/reduce/2/mini":      {{0x3ee239688173b301, 0xe52b58bceee770cd, 0xa48b5e03b7399831}, {0x3f53938e455b3186, 0xb8b1af96796afddd, 0x8170cd490dc91c4d}, {0x3f8391b882459da0, 0x3ade978ad2a57045, 0x33024872e5d7c2b5}},
	"sm/reduce/2/numa":      {{0x3ef41a9f9ef7b2df, 0xdd7bfa0ad4547da5, 0x7ab0693baa598ed1}, {0x3f69580e982c956e, 0x0a73cbd0e66e2cd5, 0x40c9b31b6fa8c485}, {0x3f99554df38c3796, 0xb4fb09dd16f21c9d, 0x093ff7b941bebe65}},
	"sm/allreduce/0/mini":   {{0x3ee80de8cbdbe112, 0x3271c995904ea6ad, 0x696fa04b7bca9009}, {0x3f57ed1e4861e5ed, 0x7176e9dd1fffd4dd, 0xd5daac3ee2a258cd}, {0x3f87e90e1868f9db, 0x86e92fa1fef93265, 0x125680191c7f7285}},
	"sm/allreduce/0/numa":   {{0x3ef941895110d883, 0x216d70ff959d416d, 0x350989f4d02359dd}, {0x3f6f3b3966fee7a0, 0xa7580bfccb6930bd, 0xff78aeba5a195b81}, {0x3f9f329ce04b03de, 0xd0417a5ece3975b5, 0xbf4331b9540c0f09}},
	"sm/gather/0/mini":      {{0x3ed796b9594153a1, 0x5a4f8e5347423a9d, 0x01f26159a980424d}, {0x3f3a0177be166a69, 0x7b7b994f0dee769d, 0x268825efed65b9b9}, {0x3f69cc9e9875c6ef, 0xb71a297f1e999c95, 0x4bd54014ce55cf65}},
	"sm/gather/0/numa":      {{0x3ee95dfd94c958d5, 0x409cefc3000048f5, 0xca60d787939d6dd5}, {0x3f54286a15868e0d, 0xd34176f366c01f35, 0x891b600266eecbed}, {0x3f840eb96a58777a, 0x51dc38d193593b25, 0xb2298afe5aa75ee1}},
	"sm/gather/2/mini":      {{0x3ed7904814ca4511, 0x572a8e363e99145d, 0x5ceefacfdeb5c075}, {0x3f39f0b0c675b47c, 0x66167fc4dcc8ca5d, 0x9b7a48f1da5ecf91}, {0x3f69ca85b981b032, 0x289ac9fffed2afdd, 0x5163d5ecad96d71d}},
	"sm/gather/2/numa":      {{0x3ee92cf4d2cd69fb, 0xb7997e4aa388704d, 0x7bd015a0b30472cd}, {0x3f542438579e6092, 0x341fd0b24a196265, 0xff34fc1eeb110c51}, {0x3f840e33329b71ca, 0x9b036e9ebf25c7f5, 0x95e23416a8819181}},
	"sm/allgather/0/mini":   {{0x3ee80de8cbdbe111, 0xe1e68919279739ad, 0x6576bb83c63e0421}, {0x3f57d5d703ffb652, 0xcfd6d7bfa5b24925, 0x05fa60b6ddb63335}, {0x3f87d6cf5183cda7, 0x6ac9234de81cf855, 0x82f7793334df0d91}},
	"sm/allgather/0/numa":   {{0x3f0424e9de196a23, 0x30055a379872af95, 0x7792e8dc25527879}, {0x3f7c7d80754740ca, 0x5d092f54b55718ed, 0xcbd84385668127b1}, {0x3fac74f810895110, 0xf4c3d80da590073d, 0xcf5affd44c755ed5}},
	"sm/scatter/0/mini":     {{0x3ed27ae80ed8c712, 0x9637f77da175b1a5, 0x628c47655d6a98e5}, {0x3f39ee2c87b732cb, 0x0b673609fb1b2e85, 0x273284ea671b3681}, {0x3f69ca3531a9dffa, 0xfea392d1d8072655, 0x51f6a5413324adb1}},
	"sm/scatter/0/numa":     {{0x3ee2860076896027, 0x12a965caf6117c9d, 0x6207a559a12db6d5}, {0x3f5589b4ca21a1bb, 0xa49eef3b2589c725, 0x916a7dfea3abec01}, {0x3f857b939f2eaeea, 0xaa2a9230c1802d85, 0x1c606af2d10f0281}},
	"sm/scatter/2/mini":     {{0x3ed91b6b26a5c259, 0x7942d2364e4f6325, 0x8702cec877020899}, {0x3f3a0fba76f89ea6, 0x1eb600c1d5707e05, 0x22f44a0ef4cb2d41}, {0x3f69ce66ef920d76, 0x3beda6e0b8525165, 0x801946eff45b34e9}},
	"sm/scatter/2/numa":     {{0x3ee7017951d08238, 0xfff0ed308199d555, 0xb40fe9f314209999}, {0x3f55921845f1fcb2, 0x7cf3041666500465, 0x94ef6b23e42fcf95}, {0x3f857ca00ea8ba49, 0xfb1c64888710102d, 0xe7794e8061a12949}},
	"solo/bcast/0/mini":     {{0x3eda07a44a5dd85e, 0xbdcee465c9a7cd2d, 0x59f5c3e97a3397d9}, {0x3f2a499c1a164581, 0x290713c36cfd7025, 0x1f1c4fb4cf1353dd}, {0x3f59d5a323f5c254, 0x5dc55939a9792f4d, 0x7c1cb38ff2f910dd}},
	"solo/bcast/0/numa":     {{0x3ee64c5e944be8cd, 0xc4f08706cfc65ead, 0x0f5c4a994ae8807d}, {0x3f47283c202db3d9, 0x0260742d393c643d, 0x53cad06737550089}, {0x3f76f01568330628, 0x8ac481fe99ba43e5, 0x22faca08a6e7de31}},
	"solo/bcast/2/mini":     {{0x3eda07a44a5dd85e, 0x69d0a84dd146480d, 0xa87319afe3c6a3a5}, {0x3f2a6b2a0957b15d, 0x94e0078475dfdbdd, 0xc0b7aec21e5c8035}, {0x3f59d9d4e1ddefcf, 0xec2ba88803e12d45, 0x885e7f612e8e3e51}},
	"solo/bcast/2/numa":     {{0x3ee64c5e944be8cd, 0x4fec1a4a8ddb7495, 0xde42e419261e3ca5}, {0x3f47283c202db3d9, 0x216741c584d1cffd, 0x460a8331d97a126d}, {0x3f76f01568330628, 0xa8e7bec90c3c88fd, 0xe86170e8b0cd4fc9}},
	"solo/reduce/0/mini":    {{0x3edf237594c664ec, 0xda26429eba1850a5, 0x62ef40fb8b53afe1}, {0x3f35c360bd5a131c, 0x75ce7d3a16189c25, 0x45cfcb372d91dde1}, {0x3f6582c91d95bd16, 0x0d369133c572bc75, 0xffa9c3608ee597e5}},
	"solo/reduce/0/numa":    {{0x3eeb3a5fbef40dca, 0x636bf2ae9c0292d5, 0x782e4115b96fd241}, {0x3f450c8b9e22dfc9, 0xa6904e44ea5c88bd, 0x476f941663cba465}, {0x3f74cb960a8d6c2f, 0x41c1c403bff11f5d, 0x1451a2d5c6cb84ed}},
	"solo/reduce/2/mini":    {{0x3edf237594c664ec, 0x17c026f554116985, 0xdcfd6aa2a44901b1}, {0x3f35c360bd5a131c, 0x6d88f9d1609b9de5, 0x2c18dad0cdee6bb1}, {0x3f6582c91d95bd16, 0x46697f38a5f171cd, 0xab5884d762653055}},
	"solo/reduce/2/numa":    {{0x3eebf1a03df5ac10, 0x2b87b7ac04b3d86d, 0x6fd90a5cdc3a746d}, {0x3f4d92ca9a959527, 0xb0b9777b69407df5, 0xa3fd8677e8701769}, {0x3f7d60831facc0bb, 0x850f9b5c105d9835, 0x21df21cae1540c3d}},
	"solo/allreduce/0/mini": {{0x3ee75dd0d1d052f9, 0x33a66313199c5535, 0x56b80daf059a7cb1}, {0x3f416bb3e9623ff7, 0x50bec768e9a9c9fd, 0x399d47ccac0f8da5}, {0x3f7135c0e84e43c1, 0xec37001eceb4fcd5, 0xf3385492ff1fcb19}},
	"solo/allreduce/0/numa": {{0x3ef3921450553e31, 0xc5ea419d96fc29a5, 0xc77bfc08e31dad1d}, {0x3f5606ad48fea741, 0x6b5a72ca11175385, 0x09959c236a3a5fe5}, {0x3f85db5ee69b04da, 0xeee951487f6a3c05, 0x807c44a87e3715c9}},
	"solo/gather/0/mini":    {{0x3eda07a44a5dd85e, 0xa6c5ab52948141c5, 0x01d849d992a83c41}, {0x3f2a67cf0b0459c8, 0x19944447ec030155, 0x5d64be061b829805}, {0x3f59d969821384dc, 0xa0b9dcf12dedcb85, 0xb4a516916af43e99}},
	"solo/gather/0/numa":    {{0x3ee7220b48634bd8, 0x2f06de5799b698a5, 0x806aae754950fd45}, {0x3f4fb6de9870c42c, 0x60b0b8d05019883d, 0x63ba76d04456c265}, {0x3f7f860eeccc6612, 0xe0467ffb2fd68645, 0x4eb6c3745951d4b1}},
	"solo/gather/2/mini":    {{0x3edbc205fcf7c073, 0x251556ff78be6b95, 0x2283b48cf34b206d}, {0x3f2a895cfa45c5a2, 0xf69013168bf48ccd, 0xca4e4ca93c277c29}, {0x3f59dd9b3ffbb258, 0xc5aa4945c6f10e65, 0x64de4964548149b5}},
	"solo/gather/2/numa":    {{0x3ee7ead5738c91c3, 0xf7c3a3eb8cb8892d, 0xcf4bc6f9d36bf5e9}, {0x3f4fbf4214411f24, 0x101d2a86ae0b0ce5, 0xb8f81bcac19ac365}, {0x3f7f871b5c467172, 0xb6cef8def0046fb5, 0xb6c96b1840240bc9}},
	"solo/scatter/0/mini":   {{0x3eda07a44a5dd85e, 0xbdcee465c9a7cd2d, 0x59f5c3e97a3397d9}, {0x3f2a499c1a164581, 0x290713c36cfd7025, 0x1f1c4fb4cf1353dd}, {0x3f59d5a323f5c254, 0x5dc55939a9792f4d, 0x7c1cb38ff2f910dd}},
	"solo/scatter/0/numa":   {{0x3ee64c5e944be8cd, 0xc4f08706cfc65ead, 0x0f5c4a994ae8807d}, {0x3f47283c202db3d9, 0x0260742d393c643d, 0x53cad06737550089}, {0x3f76f01568330628, 0x8ac481fe99ba43e5, 0x22faca08a6e7de31}},
	"solo/scatter/2/mini":   {{0x3eda07a44a5dd85e, 0x69d0a84dd146480d, 0xa87319afe3c6a3a5}, {0x3f2a6b2a0957b15d, 0x94e0078475dfdbdd, 0xc0b7aec21e5c8035}, {0x3f59d9d4e1ddefcf, 0xec2ba88803e12d45, 0x885e7f612e8e3e51}},
	"solo/scatter/2/numa":   {{0x3ee64c5e944be8cd, 0x4fec1a4a8ddb7495, 0xde42e419261e3ca5}, {0x3f47283c202db3d9, 0x216741c584d1cffd, 0x460a8331d97a126d}, {0x3f76f01568330628, 0xa8e7bec90c3c88fd, 0xe86170e8b0cd4fc9}},
}

func TestGoldenShmBits(t *testing.T) {
	seen := 0
	for _, mk := range []func() Module{func() Module { return NewSM() }, func() Module { return NewSOLO() }} {
		for _, oc := range shmCases {
			kind, _ := KindByName(oc.name)
			if !mk().Supports(kind) {
				continue
			}
			roots := []int{0}
			if oc.rooted {
				roots = []int{0, 2}
			}
			for _, root := range roots {
				for _, sp := range goldenShmSpecs {
					var got [3]shmBits
					var name string
					for i, n := range goldenShmSizes {
						mod := mk()
						name = fmt.Sprintf("%s/%s/%d/%s", mod.Name(), oc.name, root, sp.name)
						got[i] = goldenBits(t, sp.spec, func(p *mpi.Proc) {
							c := p.W.NodeComm(p.Node())
							p.Sim.Sleep(sim.Time(c.Rank(p)) * 1e-6)
							p.Wait(oc.issue(mod, p, c, n, root))
						})
					}
					seen++
					if want, ok := goldenShm[name]; !ok || got != want {
						t.Errorf("%s changed bits; row is now\n\t%q: {%v, %v, %v},", name, name, got[0], got[1], got[2])
					}
				}
			}
		}
	}
	if seen != len(goldenShm) {
		t.Errorf("ran %d cases, table holds %d rows", seen, len(goldenShm))
	}
}

// goldenBarrier pins three back-to-back barriers, ranks entering the first
// a microsecond apart, on 2, 5 and 16 ranks (one round, three with a
// non-power-of-two wrap, four across nodes).
var goldenBarrier = []struct {
	spec cluster.Spec
	want shmBits
}{
	{cluster.Mini(2, 1), shmBits{0x3edea1e4fafa4004, 0xf2f5a44935a121c3, 0x4d71d8281e1bc7b7}},
	{cluster.Mini(1, 5), shmBits{0x3ef23bcb58706311, 0x05f80ece79a6ad66, 0x6ae461f3d62a0ae3}},
	{cluster.Mini(4, 4), shmBits{0x3f04e6b39a68683d, 0xeb619fe2413463e8, 0xb223012a76c1a5e1}},
}

func TestGoldenBarrierBits(t *testing.T) {
	for _, row := range goldenBarrier {
		got := goldenBits(t, row.spec, func(p *mpi.Proc) {
			c := p.W.World()
			p.Sim.Sleep(sim.Time(p.Rank) * 1e-6)
			for i := 0; i < 3; i++ {
				c.Barrier(p)
			}
		})
		if got != row.want {
			t.Errorf("Barrier on %d ranks changed bits; row is now\n\t%v", row.spec.Ranks(), got)
		}
	}
}

// The point-to-point modules (Adapt, Libnbc, Tuned) are pinned the same
// way, recorded while every operation's helper was a goroutine running the
// straight-line bodies of algos.go: every algorithm a module lists for
// Bcast, Reduce and Allreduce (plus Tuned's own decision), linear Gather and
// Scatter and ring Allgather, from comm rank 0 and from the last rank, with
// internal segmentation off and at 64 KiB where the module honours it, on
// the sixteen ranks of Mini(4,4) and on a five-rank communicator across its
// nodes (the non-power-of-two fold and unfold of recursive doubling, ragged
// trees). Ranks enter a microsecond apart in comm-rank order. The rows that
// carry real bytes (see treeReal) also check the payload against a serial
// reduction.

// treeSub is the five-rank communicator: two ranks of node 0, one on each
// other node.
var treeSub = []int{1, 2, 6, 11, 12}

type treeCase struct {
	kind   Kind
	rooted bool
	segs   bool // the operation honours Params.Seg on Adapt and Tuned
}

var treeCases = []treeCase{
	{Bcast, true, true}, {Reduce, true, true}, {Allreduce, false, true},
	{Gather, true, false}, {Scatter, true, false}, {Allgather, false, false},
}

// treeReal reports whether a row runs on real buffers: the small sizes,
// where sixteen copies of the widest buffer stay small.
func treeReal(kind Kind, n int) bool {
	if kind == Gather || kind == Scatter || kind == Allgather {
		return n <= 1<<10
	}
	return n <= 256<<10
}

// treeData is what the real-buffer rows move and expect, for one block size
// on one communicator size: comm rank r's contribution — integers, so that a
// sum is exact in any order — the blocks side by side, and their serial
// reduction.
type treeData struct {
	vals     [][]byte
	all, sum []byte
}

var treeDataCache = map[[2]int]*treeData{}

func treeDataFor(n, size int) *treeData {
	d := treeDataCache[[2]int{n, size}]
	if d == nil {
		d = &treeData{}
		for r := 0; r < size; r++ {
			vals := make([]float64, n/8)
			for i := range vals {
				vals[i] = float64((i%251)*(r+1) + r)
			}
			d.vals = append(d.vals, mpi.EncodeFloat64s(vals))
			d.all = append(d.all, d.vals[r]...)
		}
		d.sum = append([]byte(nil), d.vals[0]...)
		for _, v := range d.vals[1:] {
			mpi.ReduceBytes(mpi.OpSum, mpi.Float64, d.sum, v)
		}
		treeDataCache[[2]int{n, size}] = d
	}
	return d
}

// treeOp runs one operation on c and, on real buffers, checks what it left
// behind.
func treeOp(t *testing.T, mod Module, p *mpi.Proc, c *mpi.Comm, kind Kind, n, root int, pr Params) {
	me, size := c.Rank(p), c.Size()
	real := treeReal(kind, n)
	var d *treeData
	if real {
		d = treeDataFor(n, size)
	} else {
		d = &treeData{vals: make([][]byte, size)}
	}
	buf := func(n int, fill []byte) mpi.Buf {
		if !real {
			return mpi.Phantom(n)
		}
		b := make([]byte, n)
		copy(b, fill)
		return mpi.Bytes(b)
	}
	check := func(what string, got mpi.Buf, want []byte) {
		if real && !bytes.Equal(got.B, want) {
			t.Errorf("%s %s n=%d root=%d %+v: rank %d holds the wrong %s", mod.Name(), kind, n, root, pr, me, what)
		}
	}
	switch kind {
	case Bcast:
		var fill []byte
		if me == root {
			fill = d.vals[root]
		}
		b := buf(n, fill)
		p.Wait(mod.Ibcast(p, c, b, root, pr))
		check("payload", b, d.vals[root])
	case Reduce:
		rb := buf(n, nil)
		p.Wait(mod.Ireduce(p, c, buf(n, d.vals[me]), rb, mpi.OpSum, mpi.Float64, root, pr))
		if me == root {
			check("sum", rb, d.sum)
		}
	case Allreduce:
		rb := buf(n, nil)
		p.Wait(mod.Iallreduce(p, c, buf(n, d.vals[me]), rb, mpi.OpSum, mpi.Float64, pr))
		check("sum", rb, d.sum)
	case Gather:
		rb := buf(n*size, nil)
		p.Wait(mod.Igather(p, c, buf(n, d.vals[me]), rb, root, pr))
		if me == root {
			check("blocks", rb, d.all)
		}
	case Scatter:
		var fill []byte
		if me == root {
			fill = d.all
		}
		rb := buf(n, nil)
		p.Wait(mod.Iscatter(p, c, buf(n*size, fill), rb, root, pr))
		check("block", rb, d.vals[me])
	case Allgather:
		rb := buf(n*size, nil)
		p.Wait(mod.Iallgather(p, c, buf(n, d.vals[me]), rb, pr))
		check("blocks", rb, d.all)
	}
}

// treeRows enumerates the table's rows in a fixed order: name and the
// arguments of treeOp that do not depend on the size.
func treeRows(visit func(name string, mk func() Module, tc treeCase, sub bool, root int, pr Params)) {
	for _, mk := range []func() Module{func() Module { return NewAdapt() }, func() Module { return NewLibnbc() }, func() Module { return NewTuned() }} {
		mod := mk()
		for _, tc := range treeCases {
			if !mod.Supports(tc.kind) {
				continue
			}
			// The unsegmented operations have one algorithm each; of the
			// others, Tuned's own decision (AlgDefault) is a row too.
			algs := []Alg{AlgDefault}
			if tc.segs {
				if algs = mod.Algs(tc.kind); mod.Name() == "tuned" {
					algs = append([]Alg{AlgDefault}, algs...)
				}
			}
			for _, alg := range algs {
				// Params.Seg reaches a tree of Adapt, and of Tuned past an
				// explicit algorithm; 1<<30 is one segment whatever the
				// module's default.
				segs := []int{0}
				if tc.segs && (mod.Name() == "adapt" || mod.Name() == "tuned" && alg != AlgDefault && tc.kind != Allreduce) {
					segs = []int{1 << 30, 64 << 10}
				}
				for _, seg := range segs {
					for _, sub := range []bool{false, true} {
						size := 16
						if sub {
							size = len(treeSub)
						}
						roots := []int{0}
						if tc.rooted {
							roots = []int{0, size - 1}
						}
						for _, root := range roots {
							segName := map[int]string{0: "0", 1 << 30: "off", 64 << 10: "64k"}[seg]
							name := fmt.Sprintf("%s/%s/%v/seg%s/n%d/root%d", mod.Name(), tc.kind, alg, segName, size, root)
							visit(name, mk, tc, sub, root, Params{Alg: alg, Seg: seg})
						}
					}
				}
			}
		}
	}
}

func TestGoldenTreeBits(t *testing.T) {
	seen := 0
	treeRows(func(name string, mk func() Module, tc treeCase, sub bool, root int, pr Params) {
		var got [3]shmBits
		for i, n := range goldenShmSizes {
			mod := mk()
			got[i] = goldenBits(t, cluster.Mini(4, 4), func(p *mpi.Proc) {
				c := p.W.World()
				if sub {
					if c = c.Sub("golden:tree", treeSub); c.Rank(p) < 0 {
						return
					}
				}
				p.Sim.Sleep(sim.Time(c.Rank(p)) * 1e-6)
				treeOp(t, mod, p, c, tc.kind, n, root, pr)
			})
		}
		seen++
		if want, ok := goldenTree[name]; !ok || got != want {
			t.Errorf("%s changed bits; row is now\n\t%q: {%v, %v, %v},", name, name, got[0], got[1], got[2])
		}
	})
	if seen != len(goldenTree) {
		t.Errorf("ran %d cases, table holds %d rows", seen, len(goldenTree))
	}
}

// goldenTree maps "module/op/alg/segKiB/ranks/root" to the bits at each of
// goldenShmSizes.
var goldenTree = map[string][3]shmBits{
	"adapt/bcast/chain/segoff/n16/root0":          {{0x3f028f4ebcfc7531, 0x233983392998ad68, 0xd9e3cd7fd0452d4e}, {0x3f668849f4cc8ad9, 0x032eaf5a20fb8322, 0x3ed8901da51f4358}, {0x3f8cb65e1220b099, 0x72649613695fc7f4, 0xd32e183a84d58e95}},
	"adapt/bcast/chain/segoff/n16/root15":         {{0x3f0b4a0861ce5130, 0x688e6c94fe2f0099, 0x7994869795fc4ebd}, {0x3f6971c87531989f, 0x1ad11643bdb4382f, 0xfff7c9bbb31ae7db}, {0x3f9029a3926bd2e3, 0xfca672ae1ecc86c8, 0xa90967912a3b9dde}},
	"adapt/bcast/chain/segoff/n5/root0":           {{0x3eed415966a3a307, 0x1cf5d19b5549688d, 0x632c8daaafcff86f}, {0x3f584ddfbab9ac3a, 0xee9c062f44b7111f, 0x37c146306822ff3b}, {0x3f7f141f255a6f6c, 0x4146c8aa2a883a3f, 0xfd79189b8eb5280e}},
	"adapt/bcast/chain/segoff/n5/root4":           {{0x3ef2d26a9b7f4ce6, 0xb39333eab27eb761, 0xe372cffc7444711d}, {0x3f585ea6b25a6228, 0x97b0a15ed6dd0dd3, 0x9fc0ecca6daa2c35}, {0x3f7f1850e3429ce6, 0x895aed838d6458f1, 0x08aaff3375337347}},
	"adapt/bcast/chain/seg64k/n16/root0":          {{0x3f028f4ebcfc7531, 0x233983392998ad68, 0xd9e3cd7fd0452d4e}, {0x3f570959ce861304, 0x08a171f1c4373945, 0x22441729e75e2572}, {0x3f7588de29178bc4, 0xa4cef0569a45df44, 0x7100ecfab799c4a4}},
	"adapt/bcast/chain/seg64k/n16/root15":         {{0x3f0b4a0861ce5130, 0x688e6c94fe2f0099, 0x7994869795fc4ebd}, {0x3f57d1133eb2538a, 0x725753fd49825a25, 0x3b161e036b8a3c43}, {0x3f75f2d79ea4cfe6, 0xb07e926470579470, 0x3fe5c6039e4965dc}},
	"adapt/bcast/chain/seg64k/n5/root0":           {{0x3eed415966a3a307, 0x1cf5d19b5549688d, 0x632c8daaafcff86f}, {0x3f4b57dfbae61a7b, 0xbe5661863ea26975, 0x90ac0c961dd7308f}, {0x3f727346627ebf13, 0x422daaf42a6dbd4f, 0x8b80b120bcddb893}},
	"adapt/bcast/chain/seg64k/n5/root4":           {{0x3ef2d26a9b7f4ce6, 0xb39333eab27eb761, 0xe372cffc7444711d}, {0x3f4bd50de9a85579, 0x2d1dc0576e4fd78d, 0x2d4cbc6df6d4af63}, {0x3f7282ec28570674, 0x3204fe946b899726, 0xc252a3335243776e}},
	"adapt/bcast/binary/segoff/n16/root0":         {{0x3ef74cdc0a0fdca4, 0x2e700d47e495e5e0, 0x6afc9cc0257b9bc4}, {0x3f76dec4f066e0c2, 0x377823504fd70fa3, 0xa803ced901c92548}, {0x3f9d701b5c46c2e5, 0x8798c5afc6c68127, 0x7cfb268af841ba44}},
	"adapt/bcast/binary/segoff/n16/root15":        {{0x3f028898c055c605, 0x87b3aabe537a0aa5, 0x4ab320dc661662d2}, {0x3f764fec3553b98c, 0x91864c4ebbfd233e, 0xa4f5b2dc9ae7dcf8}, {0x3f9ca846a2427c44, 0x75ac395ca9bf8c35, 0x2e68c42428b05f9d}},
	"adapt/bcast/binary/segoff/n5/root0":          {{0x3ee2599ed7c6fbd2, 0xf01637d986602490, 0x0a746d8ab0ab4b62}, {0x3f564dfcf1e4790d, 0xca6f945b5083be9a, 0x395c6ba78d343f45}, {0x3f7ca7cad166ac25, 0x01eb591ca0669b18, 0xd9f28dd4fdc0640b}},
	"adapt/bcast/binary/segoff/n5/root4":          {{0x3ef03353ea62dfc9, 0xc7fa7ea5e8f96740, 0x93f311f912f21490}, {0x3f5dd669d0aaa077, 0xf5023ff7df2ec9fd, 0x3d9f8cd96a7d6f83}, {0x3f831daa480907fa, 0x466fecfd91c051b4, 0x87a742345c8edd8c}},
	"adapt/bcast/binary/seg64k/n16/root0":         {{0x3ef74cdc0a0fdca4, 0x2e700d47e495e5e0, 0x6afc9cc0257b9bc4}, {0x3f71bfd709d65c5c, 0xb975b4c32d1edb51, 0x7a23f34885b026b0}, {0x3f9ebe77fdf10fa9, 0x4800dfe34666faab, 0xb328f85f2041fbf6}},
	"adapt/bcast/binary/seg64k/n16/root15":        {{0x3f028898c055c605, 0x87b3aabe537a0aa5, 0x4ab320dc661662d2}, {0x3f700915d073f36a, 0xf3a694346d0cfe84, 0x74a1fa92375480c7}, {0x3f9a8eb514cff67e, 0xbec55c4e4c546bd0, 0x82ce58f07c149326}},
	"adapt/bcast/binary/seg64k/n5/root0":          {{0x3ee2599ed7c6fbd2, 0xf01637d986602490, 0x0a746d8ab0ab4b62}, {0x3f59df130f4028a9, 0x5a2c49c98a0437fe, 0x879b64f8b9b817b0}, {0x3f89c852029afeb9, 0x9c798b023dacbe77, 0xe99a1b8336f060a9}},
	"adapt/bcast/binary/seg64k/n5/root4":          {{0x3ef03353ea62dfc9, 0xc7fa7ea5e8f96740, 0x93f311f912f21490}, {0x3f55b0ec468fb164, 0xd2fedd8c6f295215, 0xe902056032cb4dfb}, {0x3f81be67f3f3f1ee, 0x04a4ecf2be9a140a, 0xb5b90155d5485109}},
	"adapt/bcast/binomial/segoff/n16/root0":       {{0x3ef358a25884fc54, 0xdc61431a8e936f56, 0xadc8773ddb562fb7}, {0x3f5c083adf07eea7, 0x413e98ae1aa1c771, 0xd861672685b63ad1}, {0x3f81edb698f57681, 0xbec72b0cf99de296, 0xee4b5f731a0a62e0}},
	"adapt/bcast/binomial/segoff/n16/root15":      {{0x3f0292a9bb4fccc5, 0x8514c71ec7546a1d, 0x6c4d7b6374666bdb}, {0x3f713e005fdc8df7, 0x474ad6e82c184f71, 0x713bbd9f4652f99f}, {0x3f9619cfb018eb85, 0x82355be3f0ff0c60, 0x77665feca7cbe54b}},
	"adapt/bcast/binomial/segoff/n5/root0":        {{0x3ee57eed45e9185c, 0x1482e58872d12381, 0x0d71e458b16ebd96}, {0x3f565a26cbd2968c, 0xf6660660afe92556, 0x0f751a08609238c3}, {0x3f7caad547e23384, 0x486e50ff16a180bc, 0x746741790124b8c4}},
	"adapt/bcast/binomial/segoff/n5/root4":        {{0x3ef01f31f46ed245, 0xa58675ff38969a06, 0x735221655ca57a24}, {0x3f5dd61948d2d042, 0x670d1fc58f211e78, 0x99dd108633a75272}, {0x3f831da0370e0df4, 0xadc978b3e3165851, 0xfba1b87ccd966f48}},
	"adapt/bcast/binomial/seg64k/n16/root0":       {{0x3ef358a25884fc54, 0xdc61431a8e936f56, 0xadc8773ddb562fb7}, {0x3f553370115762b6, 0x0357daf6805ca302, 0x12558ac8fd03eb36}, {0x3f81aeb86d4ce81a, 0x53e6dcb4ea35646f, 0x442f5c90173a1352}},
	"adapt/bcast/binomial/seg64k/n16/root15":      {{0x3f0292a9bb4fccc5, 0x8514c71ec7546a1d, 0x6c4d7b6374666bdb}, {0x3f670c1169982d6b, 0x2a6fe23ad1ae1b6a, 0xd5121de97e303d87}, {0x3f91e9cc9855016e, 0x66212b36759e0e59, 0x1b5bef05237ba885}},
	"adapt/bcast/binomial/seg64k/n5/root0":        {{0x3ee57eed45e9185c, 0x1482e58872d12381, 0x0d71e458b16ebd96}, {0x3f5379c2c23a8038, 0xeeaa2219130f5171, 0x3b0cb5c57bbe4a6e}, {0x3f817782c3694bc7, 0xa79793f117b61334, 0x91b718170b1aed4e}},
	"adapt/bcast/binomial/seg64k/n5/root4":        {{0x3ef01f31f46ed245, 0xa58675ff38969a06, 0x735221655ca57a24}, {0x3f5c21aa85e13c2d, 0xb7e910c6f58ea209, 0x9f2fbe92c2f49069}, {0x3f8a10a4f16f2128, 0x56ce44ae8dac46c8, 0xce7fc33a04e7efd8}},
	"adapt/reduce/chain/segoff/n16/root0":         {{0x3f0c6ff8358649ad, 0x09001eded0da7a04, 0xd2bf5785326756c0}, {0x3f6eb55499ec148f, 0xbd490ebebec31aca, 0x60792f6a2f8e9b2e}, {0x3f966cb33fec3787, 0x671af167618924ba, 0x24967328011fbfe3}},
	"adapt/reduce/chain/segoff/n16/root15":        {{0x3f0cc73609fd2ee8, 0x0f3b1e0d28668dd1, 0xbc312353898e79b2}, {0x3f70bea29587db3d, 0x1de6b97dbb0f3b08, 0xc8ef129c311bb4df}, {0x3f9836f60b5f84a3, 0x756b65eed5b58cae, 0xdcd18124fb18fbf3}},
	"adapt/reduce/chain/segoff/n5/root0":          {{0x3ef3e54b5a01ba4f, 0x9c839e1af1781626, 0xda8e2968b2d4ffda}, {0x3f5caa29ac6417cc, 0x0f5af4f2d6d45c69, 0x88296938c61840f2}, {0x3f83d7ab6bab0419, 0x3b49f8cc749a1150, 0xaa02617cd6c1461a}},
	"adapt/reduce/chain/segoff/n5/root4":          {{0x3ef2d8dbdff65b77, 0x8a2a3f9a5b7044ce, 0x0170230b2fd12f4b}, {0x3f5ca5f7ee7bea50, 0x1ad3193597483f48, 0xef67ee39c6b025da}, {0x3f83d72533edfe6a, 0x1f8df2046c318889, 0x35a07eeaea777453}},
	"adapt/reduce/chain/seg64k/n16/root0":         {{0x3f0c6ff8358649ad, 0x09001eded0da7a04, 0xd2bf5785326756c0}, {0x3f5cb5a75b120e34, 0x71113017347b30da, 0xc907b4f3f6fd11ad}, {0x3f78c03752d024c1, 0x38a2598e4ee9000c, 0xf943511c404ac117}},
	"adapt/reduce/chain/seg64k/n16/root15":        {{0x3f0cc73609fd2ee8, 0x0f3b1e0d28668dd1, 0xbc312353898e79b2}, {0x3f5daac91f76c65e, 0x27284c41d0319b85, 0x604e3f4e296134f7}, {0x3f79352468d9cd0d, 0x89a0d97d9622c02f, 0xcf4329ff378c5866}},
	"adapt/reduce/chain/seg64k/n5/root0":          {{0x3ef3e54b5a01ba4f, 0x9c839e1af1781626, 0xda8e2968b2d4ffda}, {0x3f4f6dd52bd2270f, 0x025ca2423b4563f4, 0xa71c13b6201b4c9e}, {0x3f7511c6c0b2fce1, 0xed9fe07c0e054508, 0xe42e10800b01a0d6}},
	"adapt/reduce/chain/seg64k/n5/root4":          {{0x3ef2d8dbdff65b77, 0x8a2a3f9a5b7044ce, 0x0170230b2fd12f4b}, {0x3f4fbfcfd0235a63, 0xd075df258ffce0ed, 0xbb8a05802b5ff172}, {0x3f751c06153d234c, 0x95661f050ac03a2c, 0xf80df74fa20b1aa6}},
	"adapt/reduce/binary/segoff/n16/root0":        {{0x3f0155dd4bbf9098, 0xac1d3830fd573701, 0x4cf5ea7dbafcc648}, {0x3f743e84cbcaa469, 0x69674bcaf458160b, 0x81d821943e839c96}, {0x3f9aaa2a4f4db4dd, 0xe63d776de8cfbb70, 0x091b737a66206cb7}},
	"adapt/reduce/binary/segoff/n16/root15":       {{0x3f01ad1b203675d1, 0x50be86902de51817, 0x021d36cae42695af}, {0x3f7043540e355eaf, 0x56878215578678a0, 0xeb01225681154a29}, {0x3f96041242a3b133, 0xb5fa92743507e8fd, 0xb57f8feda19998cb}},
	"adapt/reduce/binary/segoff/n5/root0":         {{0x3eea28ed816fa39f, 0x8c6c907c7d95c4ca, 0x242e7a7c12599e7b}, {0x3f5c9673163a753b, 0x408d73a0b06d7a3b, 0xe37a509957822f0b}, {0x3f83d53498e5cfc7, 0x75c9d33f3ee0473f, 0xe14672d5a95568e7}},
	"adapt/reduce/binary/segoff/n5/root4":         {{0x3eeb174c66a4be80, 0x04115a804e404cf6, 0x85cad255dbda80d2}, {0x3f61132a1c40dc89, 0xe588fc093125afa6, 0x768c38da6d58d9c3}, {0x3f8769ba2fcc69fd, 0xbf10ec14c7629581, 0x015491a213854481}},
	"adapt/reduce/binary/seg64k/n16/root0":        {{0x3f0155dd4bbf9098, 0xac1d3830fd573701, 0x4cf5ea7dbafcc648}, {0x3f70e6f497bb8607, 0x33a2256111c572ee, 0x4c2f34419fc091a3}, {0x3f9e777ea25b3ee5, 0x881dbcaad055c5c0, 0x3b8f464d40a6d9cb}},
	"adapt/reduce/binary/seg64k/n16/root15":       {{0x3f01ad1b203675d1, 0x50be86902de51817, 0x021d36cae42695af}, {0x3f6cf1723d28c9eb, 0x95579cddf9a50d7f, 0x24e1f10f6296f249}, {0x3f9a25bc622c1fd0, 0x1d5c829e24d3afbf, 0xb265df4d60fe98d4}},
	"adapt/reduce/binary/seg64k/n5/root0":         {{0x3eea28ed816fa39f, 0x8c6c907c7d95c4ca, 0x242e7a7c12599e7b}, {0x3f5c85bceddc91e7, 0x8f98e793e2cca0b4, 0x097361e40dc933dd}, {0x3f8b2b081679e9fd, 0x38591a6b8c7e04c2, 0x9bc3f0b154ba0a34}},
	"adapt/reduce/binary/seg64k/n5/root4":         {{0x3eeb174c66a4be80, 0x04115a804e404cf6, 0x85cad255dbda80d2}, {0x3f58985246c9bdfb, 0x2948c2d1d2ef0c14, 0x637115393ad09ce3}, {0x3f8434e2ad2b3e40, 0x6925ff824055e511, 0xc4604cadd3fe3e83}},
	"adapt/reduce/binomial/segoff/n16/root0":      {{0x3f0162a8ec9dcd84, 0xa7a24921713e55c7, 0x20833fd714cce122}, {0x3f673ed59b6a339e, 0xc9c71a3706ad192f, 0x239d204ec5501096}, {0x3f90bd25353097f4, 0xd919ff125312bd9d, 0xe12e71b0fc547642}},
	"adapt/reduce/binomial/segoff/n16/root15":     {{0x3f01c752ba621115, 0x7365b25f3975d272, 0x2d6379de8863710c}, {0x3f73f88c0c788dc6, 0x710b9cb2d8d7e81e, 0x5aa5b34b6f9524f0}, {0x3f9b7b09dcba8a28, 0xeccc7cefb532101b, 0x5b4dee9d4aea55ff}},
	"adapt/reduce/binomial/segoff/n5/root0":       {{0x3eeaabec9c39cbc3, 0xf42d2b4a884bac48, 0xc096ff6e54f106c4}, {0x3f54173f8aebddee, 0x53c4fd7dcd65abda, 0xa99272b5538d9748}, {0x3f7bf8247a99e04e, 0xe9da84500b1a2b16, 0xc0b8f9e0837d8cb8}},
	"adapt/reduce/binomial/segoff/n5/root4":       {{0x3ee8930da8230e11, 0x2977eac469116763, 0xb7553e1b5366c5f2}, {0x3f59a3fb5ec4ffa8, 0x40ebf8177b05711c, 0x18ef6d34f8310899}, {0x3f8190332a65c619, 0x2e7f52d4b52b9e3b, 0xa715192f84f0a327}},
	"adapt/reduce/binomial/seg64k/n16/root0":      {{0x3f0162a8ec9dcd84, 0xa7a24921713e55c7, 0x20833fd714cce122}, {0x3f6111c3aa6cd924, 0x249d182ca7401512, 0x3081678163ee43e3}, {0x3f8b731f068077b3, 0xac0e23b4f42aaaf1, 0x5516ba844934ad1a}},
	"adapt/reduce/binomial/seg64k/n16/root15":     {{0x3f01c752ba621115, 0x7365b25f3975d272, 0x2d6379de8863710c}, {0x3f6b43378d350742, 0x53eb1a1ca55c3802, 0x062f25e908f4fa52}, {0x3f964780473822e5, 0x7a53392ad226bbb6, 0x89883e005cfe5e6a}},
	"adapt/reduce/binomial/seg64k/n5/root0":       {{0x3eeaabec9c39cbc3, 0xf42d2b4a884bac48, 0xc096ff6e54f106c4}, {0x3f57013f566852b6, 0xbf59d45acbcaf821, 0xc61677306d0d3e5e}, {0x3f86e180743fd410, 0x72763fea6718d706, 0x1ecace7855a96fbc}},
	"adapt/reduce/binomial/seg64k/n5/root4":       {{0x3ee8930da8230e11, 0x2977eac469116763, 0xb7553e1b5366c5f2}, {0x3f5d7ae749473e26, 0x27a5ac914cbbc273, 0xfc7fd7c84b65978d}, {0x3f8d5ed3ed49e72f, 0x42bac8a2fb9e9cdb, 0xe09c46925a1cf2e5}},
	"adapt/allreduce/chain/segoff/n16/root0":      {{0x3f172f1ba171295e, 0xe2a0048d743482bb, 0x49009e05391361eb}, {0x3f7a9d8d27fd0ee4, 0x89ea9f24d15b5bc8, 0xb9fd1085dbc71556}, {0x3fa263c8e0925fcc, 0x4f0a4538304eddc5, 0xd526b4b13525ae1e}},
	"adapt/allreduce/chain/segoff/n5/root0":       {{0x3f00a1ec570959ce, 0x671d392423b412e9, 0x6bcbcf997da7b804}, {0x3f6a798074d06052, 0x5183ecbb1edf1060, 0xfd4de227c8c00c49}, {0x3f91b08cf7544db1, 0xba7bdc04f5755932, 0x4ff164342bcffc2a}},
	"adapt/allreduce/chain/seg64k/n16/root0":      {{0x3f172f1ba171295e, 0xe2a0048d743482bb, 0x49009e05391361eb}, {0x3f69dcfc560d8ee6, 0x7a0915bde8924110, 0x0b6c3854e1c27f0f}, {0x3f8723e9ae443780, 0x7babdc5bbdd479a6, 0xbfb1d591938f87f9}},
	"adapt/allreduce/chain/seg64k/n5/root0":       {{0x3f00a1ec570959ce, 0x671d392423b412e9, 0x6bcbcf997da7b804}, {0x3f5d5dd1f5df1d69, 0x1eacc787476eef49, 0x0e6dbe1db5d5acbc}, {0x3f83c1e581e93d8e, 0xf61bdca2ff849220, 0xac8c1a2eba36c2ab}},
	"adapt/allreduce/binary/segoff/n16/root0":     {{0x3f0c5b3ba12712cd, 0xb479bbb5a93eb2d3, 0x811374bf6816d38b}, {0x3f858e8f0ea3a4dd, 0x79773b259ab0e804, 0x442c75444247b9ae}, {0x3fac0d1d61ecf472, 0xb553f9fa7a29003f, 0x1611ef81f1ee1762}},
	"adapt/allreduce/binary/segoff/n5/root0":      {{0x3ef4ff26cd5a7782, 0x7a3f320a8582341b, 0xd35646902316ab3d}, {0x3f696fb3c550f574, 0x915f29da88343f17, 0x6cb8dd653fce2d84}, {0x3f91143c78f4c2b6, 0x3f42456da26c98f2, 0x63247b19b6e8f6a2}},
	"adapt/allreduce/binary/seg64k/n16/root0":     {{0x3f0c5b3ba12712cd, 0xb479bbb5a93eb2d3, 0x811374bf6816d38b}, {0x3f8152c4c11950c5, 0xfe1bc610208b4b5e, 0x926d00de190ac9c3}, {0x3fae9ad30c3a3f29, 0xd0e917d538d4b88c, 0x4a2d1ef5be475396}},
	"adapt/allreduce/binary/seg64k/n5/root0":      {{0x3ef4ff26cd5a7782, 0x7a3f320a8582341b, 0xd35646902316ab3d}, {0x3f6b2fe3bfcfdb98, 0xe20699976d736b44, 0x4bf08e75210ee7be}, {0x3f9a795c84b2a419, 0x83710d3f77f8aa3e, 0x3a32c1451b91ad2f}},
	"adapt/allreduce/binomial/segoff/n16/root0":   {{0x3f089edd5052a8c0, 0x929ca1edf54002be, 0x34ec97c4c2ba248c}, {0x3f729e46cb0fa5ff, 0x63041b0377cdff03, 0x9f229ab6f23e6ee7}, {0x3f99b333d3117755, 0xfb1aafab477de8c9, 0xf6dddc7cf0362092}},
	"adapt/allreduce/binomial/segoff/n5/root0":    {{0x3ef6d34d91d099d8, 0x1b57842c0f7130ec, 0x1fbd52d01474c98a}, {0x3f6538121baf99d1, 0x39737a1f15f9d94e, 0xc066193cd750174d}, {0x3f8c51549d5221cd, 0x239dd341badaaed9, 0xb69d12e1f7956c35}},
	"adapt/allreduce/binomial/seg64k/n16/root0":   {{0x3f089edd5052a8c0, 0x929ca1edf54002be, 0x34ec97c4c2ba248c}, {0x3f6ba4e08e647611, 0xf0030c61edd5ec4a, 0xb9d7d843487c5961}, {0x3f96901855502d52, 0xa601d00522458fab, 0x412c3027e3197d79}},
	"adapt/allreduce/binomial/seg64k/n5/root0":    {{0x3ef6d34d91d099d8, 0x1b57842c0f7130ec, 0x1fbd52d01474c98a}, {0x3f653b9ddd428831, 0x9d94c0a5886b796b, 0x13324da191f1bc66}, {0x3f942c4535f2b3c3, 0x541d038aa3a5ffb1, 0xd6714258bd36045f}},
	"libnbc/bcast/linear/seg0/n16/root0":          {{0x3ef72c6c6f94e351, 0xed47805468f02a33, 0x0a2d6403909075cf}, {0x3f764090f8971ab5, 0x4aa2213aba0f2bf9, 0xc7f1049a668ac5ff}, {0x3f9ca46fd313548e, 0x88cade17da7bb9da, 0x4c7e9b77586f57a8}},
	"libnbc/bcast/linear/seg0/n16/root15":         {{0x3f01e0d3140eaabf, 0x748d5ff7f97594c6, 0x33cb93c2a2b7c379}, {0x3f764d26324fa327, 0x91f6dc263262aecf, 0x8d7a5da3e3886211}, {0x3f9ca795218176ab, 0x8359411906dd9f58, 0x7521d6cc4b5c3743}},
	"libnbc/bcast/linear/seg0/n5/root0":           {{0x3ee380e6446d1759, 0xdaea99c1145d91d2, 0x88b8c3cdf0dc574c}, {0x3f56547d3ea5f2bf, 0xde636b82c854e884, 0x7aa06b5271878b90}, {0x3f7ca96ae4970a91, 0x4c1510772f4e1597, 0x2737592ee8a62d1e}},
	"libnbc/bcast/linear/seg0/n5/root4":           {{0x3eec4fc1df3300dd, 0x036173dde09ad154, 0x37b533ed0bed57dc}, {0x3f5dc8c827780ca7, 0x7fc88b6fcc69b74b, 0x3f861938ef3eb957}, {0x3f831bf612e2b57f, 0x7a377b005654d3e9, 0xfe5d2b26bb6d9a32}},
	"libnbc/bcast/binomial/seg0/n16/root0":        {{0x3ef6052502eec7c9, 0xafaecfe08f10f254, 0x1fe12c613f9d5b7b}, {0x3f5c11aaca5254fa, 0x5e385206da97813d, 0x1e6c71540d502cf9}, {0x3f81eee4965ec34a, 0x410e12d82fe2ed7a, 0x3c9b3b0612358439}},
	"libnbc/bcast/binomial/seg0/n16/root15":       {{0x3f021d38f5ead34a, 0x200a1ddb61e384e8, 0x99650146231d2cb1}, {0x3f713c23e6ca5361, 0xc46ee99a663f3007, 0xf2df04b2601814c0}, {0x3f96195891d45cdd, 0x6d617f78b61392a9, 0x6d4108cf6645ca55}},
	"libnbc/bcast/binomial/seg0/n5/root0":         {{0x3ee853b3dc3afed8, 0x3fcfae0190e2b908, 0x0c25f21e039ceafd}, {0x3f56668655a5e985, 0xac5fb003ac48c0bf, 0x69e2b57dce6657a3}, {0x3f7caded2a570841, 0xc2c6745192edea05, 0xc028d32936fcff3c}},
	"libnbc/bcast/binomial/seg0/n5/root4":         {{0x3ef132576b20e04a, 0x5c4d5b46285b417a, 0xc527548eb2de9a58}, {0x3f5ddad13e78036c, 0x5f1d6bb5057d0a37, 0xd359838ee0143ed4}, {0x3f831e3735c2b459, 0x61e60a1edabc1c6f, 0xb8064ee37fff4dc7}},
	"libnbc/reduce/linear/seg0/n16/root0":         {{0x3f01ef96a64a2c1f, 0xdbef1cb133228524, 0x8d9effe108da53a6}, {0x3f83eda422852656, 0xb1c0ec095cdc5d9c, 0x14fda0f3006b128d}, {0x3faf55f6f42f58fb, 0x9d964c4e77a44b13, 0x01a1e8f337311fe3}},
	"libnbc/reduce/linear/seg0/n16/root15":        {{0x3f084e55788272bd, 0x918bac24a40f057e, 0xa025d8162ef36e81}, {0x3f83f42b254346b9, 0x33cd60a1c9a8801d, 0x3b820b3e809bb1e1}, {0x3faf5798b4dee115, 0xeabd3daccbe46516, 0x23b34134fc2f453b}},
	"libnbc/reduce/linear/seg0/n5/root0":          {{0x3eeac8ea50518d4d, 0xc444f34c4aa856af, 0xfa28861f9daaab99}, {0x3f64b8b7a40e088d, 0x26b2f930bf289d50, 0xc3b7b231932ffd35}, {0x3f905b65f7bdc00a, 0xeafdf2bea2a7f633, 0x92a3b66d828b139a}},
	"libnbc/reduce/linear/seg0/n5/root4":          {{0x3eeb76dc88e01688, 0xa16406a097fcea6c, 0xd81605c767ffaa3c}, {0x3f678438e36a3787, 0x991bd677cf753529, 0xe13e365f3ae2c812}, {0x3f92261ad8f81ec7, 0x222dccb92fde3c83, 0x58d4d90b13fc50dc}},
	"libnbc/reduce/binomial/seg0/n16/root0":       {{0x3f089c2e1e7662b9, 0xffd3128b20c518aa, 0x04b733f7e0c53f93}, {0x3f73b365d7562d59, 0x4b84154e16318d3d, 0xa34a931e75d0ad3a}, {0x3fa06cf4de045c6f, 0x85769c9eb2f6ea3c, 0x2060e035f0b441d4}},
	"libnbc/reduce/binomial/seg0/n16/root15":      {{0x3f08f36bf2ed47f3, 0x4fabfc115e3015ca, 0x3f565f25ee0e2855}, {0x3f7c0c871619a150, 0xc72c3d798c64c43b, 0x52d1f4fbb8fc6c08}, {0x3fa5cbe731c95587, 0x6323795c2e37135f, 0xc2c63d812a3690a3}},
	"libnbc/reduce/binomial/seg0/n5/root0":        {{0x3ef1e6bae8267817, 0x85509393a13df884, 0x9591889d5dd55f97}, {0x3f5dc9bf69374712, 0x450597dd97dcdc22, 0x0482715c3a045712}, {0x3f87a70c15597ae8, 0xcacfc112e7a00200, 0x714464823d9d7f69}},
	"libnbc/reduce/binomial/seg0/n5/root4":        {{0x3ef0da4b6e1b193e, 0xd66fe64f807a58eb, 0x95aed6b9625c0565}, {0x3f61ab3d9e883466, 0xec7eec0290d20154, 0x369c0273bc3b486a}, {0x3f8b3b2d027250da, 0x784660884614a84a, 0x23792d050b9b01d6}},
	"libnbc/allreduce/recdoubling/seg0/n16/root0": {{0x3f06524322aa9621, 0x64e12b35242f54fa, 0xd018f6cba699a210}, {0x3f76e790b6d45b81, 0x9a5341e35e3bf814, 0xfc6e0ef1a4183491}, {0x3fa03cceda5b5ad3, 0xf83efc1bc6a0696a, 0xb4e75fb473ce7bcc}},
	"libnbc/allreduce/recdoubling/seg0/n5/root0":  {{0x3ef1edb59cfcc7de, 0xa4a0167e543626f4, 0xebd7ae241302e7a1}, {0x3f5f9fb0c6fab36e, 0xf6fb7dec7c1ef4dd, 0x05f1d07aa61500d0}, {0x3f88d7f811f123b1, 0x457239c8c2deac7c, 0xe96b6591d11f6b75}},
	"libnbc/allreduce/ring/seg0/n16/root0":        {{0x3f1a5a2574450f8b, 0xf1cbabc2003799f7, 0x70b0137294e47e5f}, {0x3f54b4e60eccd062, 0x9acc283d7352d9c0, 0xef59a777ee664e68}, {0x3f8331c325297218, 0xfbd5c4f09a00e32e, 0x23e9cf2dea1df61d}},
	"libnbc/allreduce/ring/seg0/n5/root0":         {{0x3efce71cf3b9c89c, 0x3c024bc0c57d91fc, 0x2f97a7f85abf1f92}, {0x3f5185b7ddee158f, 0x972c2f04f05dcbbc, 0x513158b6ee671b16}, {0x3f7bcb043940f43e, 0xefd12ed4354dbd6b, 0xc34cf885638a2192}},
	"libnbc/gather/default/seg0/n16/root0":        {{0x3ef7561e39970277, 0xe252a330fc578b20, 0xade730a18b8c1249}, {0x3f76412b86597e57, 0xa2d08579538b0a88, 0xf414f2cecaddf900}, {0x3f9ca4967683ed78, 0x87fe97b9348efc75, 0x412a79e9cc736e36}},
	"libnbc/gather/default/seg0/n16/root15":       {{0x3ef711947cfa26a2, 0x608db21b20d1bfc9, 0xad47de70ee925a75}, {0x3f764e4d79bc4943, 0x75a3b5e78d820d37, 0xdedfdd87dc99dd22}, {0x3f9ca7def35ca031, 0x7c5a1183b7566b0a, 0x54fdbf9bd3cdfe4c}},
	"libnbc/gather/default/seg0/n5/root0":         {{0x3ee380e6446d175a, 0x2802f121116da46b, 0x0d1d489361e7778d}, {0x3f56547d3ea5f2c0, 0xcdf60db383c5d569, 0x31f521edc7be068b}, {0x3f7ca96ae4970a91, 0x8d25dcb893041974, 0xd204f4a487266599}},
	"libnbc/gather/default/seg0/n5/root4":         {{0x3ee1d3671ac14c66, 0x2a77e5ee80143d51, 0x6a1ad1e24be7ccf4}, {0x3f5dbd514285f6bc, 0xa8eb6f1fbcec4424, 0x4735c162b364a5ed}, {0x3f831a87364472c1, 0x2fbf4bea20dc3874, 0x4ef9d4691630254c}},
	"libnbc/scatter/default/seg0/n16/root0":       {{0x3ef68b5cbff47735, 0x2566f5bdaff6b735, 0x0a2d6403909075cf}, {0x3f763fefe8e77a49, 0x3c11040331745999, 0xc7f1049a668ac5ff}, {0x3f9ca4478f276c73, 0xe17174d51d41713c, 0x4c7e9b77586f57a8}},
	"libnbc/scatter/default/seg0/n16/root15":      {{0x3f01904b3c3e74b1, 0x5038ca88466df131, 0x33cb93c2a2b7c379}, {0x3f764c8522a002bb, 0x2643cb01141bd7fa, 0x8d7a5da3e3886211}, {0x3f9ca76cdd958e90, 0xbce0d2d86202d291, 0x7521d6cc4b5c3743}},
	"libnbc/scatter/default/seg0/n5/root0":        {{0x3ee23ec6e52c3f22, 0x62123b61cfb0b4fb, 0x88b8c3cdf0dc574c}, {0x3f5651f8ffe7710f, 0x83bf8502ba83eef4, 0x7aa06b5271878b90}, {0x3f7ca8c9d4e76a25, 0x948d5e2e898cbe3f, 0x2737592ee8a62d1e}},
	"libnbc/scatter/default/seg0/n5/root4":        {{0x3eeb0da27ff228a6, 0x3b6ffc5f3fac4cf1, 0x37b533ed0bed57dc}, {0x3f5dc643e8b98af7, 0x0a0f6437b1e362c5, 0x3f861938ef3eb957}, {0x3f831ba58b0ae549, 0x87ee9092e15a72ce, 0xfe5d2b26bb6d9a32}},
	"libnbc/allgather/default/seg0/n16/root0":     {{0x3f138af73f671e1f, 0xbe7b57ba94c73238, 0xbc0274059170ae14}, {0x3f7c0ebb2bc9685a, 0x4d07bee57ef94182, 0x0366f41cc6665d4b}, {0x3fa1ee86a28da5b7, 0x2ecce95b4486c6c4, 0xa73d99a27b602aa5}},
	"libnbc/allgather/default/seg0/n5/root0":      {{0x3ef457a5d942fcd4, 0x343b59017368e6c9, 0xed3420cc8adf59c2}, {0x3f5df1e2d2f4fd93, 0xbdf35b51aebe1d9f, 0x1815e2f18b6aa47a}, {0x3f8321196852539d, 0x3b3b0368922c5d69, 0x7a0985db8e096d23}},
	"tuned/bcast/default/seg0/n16/root0":          {{0x3ef2dfd694ccab3f, 0xe63721726a7d4591, 0x1e27be809ebcb811}, {0x3f6f3ee1fc85bcab, 0xcae1db30909e2ef0, 0x5370b60ebcd05b46}, {0x3f9cf5ad9cc95b34, 0x61c5472cc86d55d7, 0x592ad395a5763f67}},
	"tuned/bcast/default/seg0/n16/root15":         {{0x3f015a9b5708fb52, 0x38dec62726273325, 0xe499dd5834006858}, {0x3f6ba75f50347f5e, 0x09aa6a448210b446, 0xe84369de9075614a}, {0x3f98ee7acc371c30, 0xb6233e4042ddcb3d, 0xba05fa91bffed256}},
	"tuned/bcast/default/seg0/n5/root0":           {{0x3ee3ec460ed80a17, 0xbac5ce727af52b26, 0x833adbafd18f573c}, {0x3f58a0bbe55534fe, 0x26bddc9cd480331e, 0x7178f2f37aa5a188}, {0x3f888da65edb32e3, 0x5fe52f0d80f36e5e, 0xc0508a02427e32bf}},
	"tuned/bcast/default/seg0/n5/root4":           {{0x3eee8378c5e47b3f, 0xf2b947c9a553ef5c, 0x060c405ce59b965d}, {0x3f529b5cfaa09472, 0xad63b4e2e2b478fa, 0xcb2b215a3b52cf25}, {0x3f80a4758b747008, 0xd836ef24fcb2b7fb, 0x714b85f3cf0374df}},
	"tuned/bcast/binomial/segoff/n16/root0":       {{0x3ef2dfd694ccab3f, 0xe63721726a7d4591, 0x1e27be809ebcb811}, {0x3f5c0657aff90d61, 0x182ca1bec0f73645, 0x798e230d7e60ad24}, {0x3f81ed7a33139a58, 0x0dac5d8a53d3a019, 0x3f543ec7a363a235}},
	"tuned/bcast/binomial/segoff/n16/root15":      {{0x3f015a9b5708fb52, 0x38dec62726273325, 0xe499dd5834006858}, {0x3f713b9043140054, 0xd806e26c70c5271d, 0x2b973b811f109683}, {0x3f961933a8e6c81c, 0xf1d1ee3be4e10fad, 0x73807fec6ca2c105}},
	"tuned/bcast/binomial/segoff/n5/root0":        {{0x3ee3ec460ed80a17, 0xbac5ce727af52b26, 0x833adbafd18f573c}, {0x3f565985bc22f61f, 0x8466bd530ab41e33, 0x887525df396355bd}, {0x3f7caaad03f64b69, 0x61e8445b659df7cc, 0x4e6febdf8e792673}},
	"tuned/bcast/binomial/segoff/n5/root4":        {{0x3eee8378c5e47b3f, 0xf2b947c9a553ef5c, 0x060c405ce59b965d}, {0x3f5dd2a3728cddef, 0x9eb7e06b2ffad658, 0xf3683e52e582de66}, {0x3f831d317c454fa9, 0xee30b2985c59011f, 0xbfa5c7ac64c13b39}},
	"tuned/bcast/binomial/seg64k/n16/root0":       {{0x3ef2dfd694ccab3f, 0xe63721726a7d4591, 0x1e27be809ebcb811}, {0x3f55318ce2488171, 0x753ee435fc71304b, 0xd2269c4172708906}, {0x3f81ae7c076b0bed, 0x9dd2b7192bbda5c3, 0xe083a87f1db3132b}},
	"tuned/bcast/binomial/seg64k/n16/root15":      {{0x3f015a9b5708fb52, 0x38dec62726273325, 0xe499dd5834006858}, {0x3f670822c78e82c8, 0x30b5271a906cbca3, 0x36cd43840148ed3a}, {0x3f91e94ec413cc1d, 0xd219b7fa90641b39, 0xcc325c59020fc786}},
	"tuned/bcast/binomial/seg64k/n5/root0":        {{0x3ee3ec460ed80a17, 0xbac5ce727af52b26, 0x833adbafd18f573c}, {0x3f537708d396c90e, 0xd82c5a5c781888c0, 0xebae0f83e0099687}, {0x3f81772b8594d4e1, 0x97eb2c5ea81fa59b, 0xdde2eafd5edda5db}},
	"tuned/bcast/binomial/seg64k/n5/root4":        {{0x3eee8378c5e47b3f, 0xf2b947c9a553ef5c, 0x060c405ce59b965d}, {0x3f5c1dc94fd0dee8, 0x5b50081ea4655dbd, 0x499c87779ace5e85}, {0x3f8a1028caad157e, 0x2ce77b8e8b3facf4, 0xdb2b9bb2bea01d72}},
	"tuned/bcast/chain/segoff/n16/root0":          {{0x3f044a39dff59e81, 0xd7af0a722ca52263, 0x4f009ef1cd513770}, {0x3f668f35a1586f7d, 0xd67ed7c853c18b0b, 0xb5163aad78a38015}, {0x3f8cb818fd43a9ba, 0xf1d8240d0e893b9f, 0xd2982fe06b0c005d}},
	"tuned/bcast/chain/segoff/n16/root15":         {{0x3f0d04f384c77a88, 0x1f9b82a600654130, 0x8b8fafa9bb616c08}, {0x3f6978b421bd7d43, 0x14924b253cb72b38, 0x2627f62ae4786c6f}, {0x3f902a8107fd4f74, 0x02c6fca10d84b6a2, 0x6ba2908eb17ff423}},
	"tuned/bcast/chain/segoff/n5/root0":           {{0x3eed415966a3a307, 0xc76d4a8cf8b18350, 0x781d59b0074828cf}, {0x3f584ddfbab9ac3a, 0x98b0672173fc4a8b, 0x1ef48b190ca217d6}, {0x3f7f141f255a6f6b, 0x11f787464650d02a, 0x5e50280b8a4adeb9}},
	"tuned/bcast/chain/segoff/n5/root4":           {{0x3ef2d26a9b7f4ce7, 0xeec764eaaac52d9d, 0xd60ffefdeac79c19}, {0x3f585ea6b25a6227, 0xeea074e124feae16, 0xe64624d700217cbc}, {0x3f7f1850e3429ce7, 0x37174c53f7bcd966, 0x1c502f58bdbbdaa6}},
	"tuned/bcast/chain/seg64k/n16/root0":          {{0x3f044a39dff59e81, 0xd7af0a722ca52263, 0x4f009ef1cd513770}, {0x3f57235b018bf9cd, 0xec416a632a5aa826, 0x51342b17fd1de7cc}, {0x3f7587e1b63dea0e, 0x79addecaf17c6b60, 0xca8daa52ffe494af}},
	"tuned/bcast/chain/seg64k/n16/root15":         {{0x3f0d04f384c77a88, 0x1f9b82a600654130, 0x8b8fafa9bb616c08}, {0x3f57ea22da30c9b0, 0x14ce03405e894054, 0x376e0b3a68bd6e64}, {0x3f75f467599484e6, 0x9e5cc6f2afec35a3, 0x25ee27a285a94141}},
	"tuned/bcast/chain/seg64k/n5/root0":           {{0x3eed415966a3a307, 0xc76d4a8cf8b18350, 0x781d59b0074828cf}, {0x3f4b55c6dbf203be, 0x14c27619dad90032, 0x753b6cbe54b43389}, {0x3f72730346a03c3b, 0x33f6c0ed488da0da, 0x216ea0380dd0fba3}},
	"tuned/bcast/chain/seg64k/n5/root4":           {{0x3ef2d26a9b7f4ce7, 0xeec764eaaac52d9d, 0xd60ffefdeac79c19}, {0x3f4bd2f50ab43ebc, 0x952bed6e3d36cd71, 0xa125954b639ce114}, {0x3f7282a90c78839c, 0x757f829b82c53849, 0x4ce95e724b2bbc79}},
	"tuned/bcast/linear/segoff/n16/root0":         {{0x3ef4a82db11332e3, 0xae932195ee61765e, 0xa4c25f572c5ed397}, {0x3f763e0cb9d89905, 0x15a9a8cddb760793, 0x0088ef1c32ddf26d}, {0x3f9ca3cec363b423, 0xe91de55068340b11, 0x1e9a285cbcec9e77}},
	"tuned/bcast/linear/segoff/n16/root15":        {{0x3f01177f7886239c, 0xe6ab0548769bb9c3, 0xdbea114c140f879a}, {0x3f764b938b18921a, 0xf382acaefa2af5f2, 0x41b717b653fca06d}, {0x3f9ca73077b3b268, 0x37425968f5a25909, 0x5f90d99bb06ce005}},
	"tuned/bcast/linear/segoff/n5/root0":          {{0x3edf75104d551d69, 0xede634d17595cc2e, 0xdd906c2ef4f767d4}, {0x3f564cf0826a6dae, 0xd8c51c59d69d3dd6, 0xa7a4fde78d932098}, {0x3f7ca787b588294c, 0x059536697735dcad, 0x567452b5f12cae7d}},
	"tuned/bcast/linear/segoff/n5/root4":          {{0x3ee92a737110e453, 0x025fb29581884ebb, 0xb882528be5a34e88}, {0x3f5dc27d8a9bc86d, 0x7060d0f9fd326da6, 0x1f54303b322095a3}, {0x3f831b2cbf472cf7, 0xc6ce0dc7c0762074, 0x1e24e61f48b648a1}},
	"tuned/bcast/linear/seg64k/n16/root0":         {{0x3ef4a82db11332e3, 0xae932195ee61765e, 0xa4c25f572c5ed397}, {0x3f79cbfd88c62685, 0x17e938938169cf55, 0x690d43b1bf1f9da8}, {0x3fa9c5ef51cbbe74, 0x283f971755a89421, 0x47d7e7f6a9e519bd}},
	"tuned/bcast/linear/seg64k/n16/root15":        {{0x3f01177f7886239c, 0xe6ab0548769bb9c3, 0xdbea114c140f879a}, {0x3f79d9845a061f99, 0x00c1be55d6ceacbe, 0x9aa59322687d5280}, {0x3fa9c7a02bf3bd97, 0x7449ff7d9219149d, 0x08ea1eae5c8fba23}},
	"tuned/bcast/linear/seg64k/n5/root0":          {{0x3edf75104d551d69, 0xede634d17595cc2e, 0xdd906c2ef4f767d4}, {0x3f59dae15157fb2e, 0x7a9c760935ccd85a, 0x713b585c0608781c}, {0x3f89c7cbcaddf909, 0xa8bb73f24873c4c3, 0x2979938ae482f4bb}},
	"tuned/bcast/linear/seg64k/n5/root4":          {{0x3ee92a737110e453, 0x025fb29581884ebb, 0xb882528be5a34e88}, {0x3f613fdf4f4197e0, 0xc6ae040cea5240a7, 0x2e049e4b3a4178e0}, {0x3f913046550a2ebe, 0x80150fb44176ca3b, 0x2eb8918d08130339}},
	"tuned/bcast/binary/segoff/n16/root0":         {{0x3ef6b5dd5569774b, 0xafbd1c6599e47c49, 0x25f9af84deb17983}, {0x3f76df2e1387bed0, 0x73343264941b9e1e, 0x36a69ce1731d0631}, {0x3f9d7035a50efa69, 0xd09e4b665409f6af, 0x36f5f888868a786f}},
	"tuned/bcast/binary/segoff/n16/root15":        {{0x3f025643d973a43e, 0xb971ccb5a5bb56a1, 0x016dd2e5b02a6c82}, {0x3f764f573a04785b, 0x3b562ddcf0792782, 0x18a5b6d92a5b04c4}, {0x3f9ca821636eabf8, 0xc064f9e7566d4fcd, 0x44f1d24836ac57b8}},
	"tuned/bcast/binary/segoff/n5/root0":          {{0x3ee1177f7886239b, 0xc073d955c2c378a0, 0xf87ab0ef171d1612}, {0x3f564ad7a37656f0, 0x4b7134c84e6de78b, 0xeafbe112d4d78698}, {0x3f7ca7017dcb239e, 0x31e354bdba8c20a8, 0xb0372d57518a96e7}},
	"tuned/bcast/binary/segoff/n5/root4":          {{0x3eeed4009db4b14d, 0xa82c352f77e43753, 0x109e3cd0ceeb2032}, {0x3f5dd344823c7e5b, 0x788896e4b0806c81, 0xc0c766af14d28d0e}, {0x3f831d459e3b43b5, 0x23f220f78f81ff27, 0x1859ccf09ffbd9c1}},
	"tuned/bcast/binary/seg64k/n16/root0":         {{0x3ef6b5dd5569774b, 0xafbd1c6599e47c49, 0x25f9af84deb17983}, {0x3f71bea70907aa5d, 0xda7c664b91316a5d, 0x49aa8d7c07ea0f75}, {0x3f9ebe2bfdbd6329, 0x0e681d56aaa278b0, 0x14afb1d627be28d1}},
	"tuned/bcast/binary/seg64k/n16/root15":        {{0x3f025643d973a43e, 0xb971ccb5a5bb56a1, 0x016dd2e5b02a6c82}, {0x3f7008b68509e7b3, 0x8d10b80223fec3f5, 0xe4dbe5640465517f}, {0x3f9a8e9d41f57393, 0x9b9b2c4f662c8878, 0x98b1b2014f7e0dbf}},
	"tuned/bcast/binary/seg64k/n5/root0":          {{0x3ee1177f7886239b, 0xc073d955c2c378a0, 0xf87ab0ef171d1612}, {0x3f59dae15157fb2e, 0xce268e0a58a6bad7, 0x29178bf02702be94}, {0x3f89c7cbcaddf909, 0x8c04f5629adfb171, 0x8703d64b4227202d}},
	"tuned/bcast/binary/seg64k/n5/root4":          {{0x3eeed4009db4b14d, 0xa82c352f77e43753, 0x109e3cd0ceeb2032}, {0x3f55acba88a783e8, 0xe41e68adc4f28417, 0x24a753c0567ba715}, {0x3f81bde1bc36ec3e, 0xa9dc15c40edb45e0, 0x33eb8762d3d6648c}},
	"tuned/reduce/default/seg0/n16/root0":         {{0x3f05e23f7abf38e9, 0x1f2cd527127d67bd, 0x0264ddc75f4c50bb}, {0x3f73adf1fa0ebf06, 0x35ee8c151c442101, 0x75332b794474335e}, {0x3f7d4c445c075d3c, 0x4e32d8ae17fd5147, 0x1ff853220bc8bd03}},
	"tuned/reduce/default/seg0/n16/root15":        {{0x3f06397d4f361e23, 0x24486584cb26c479, 0x9d3b1a8635956868}, {0x3f7c071338d232fd, 0x3b6a4da59389b3f7, 0xd2569ea40484e3d8}, {0x3f7d74e54df1e2ca, 0x2ccf706671236955, 0x1f505834651c2c7c}},
	"tuned/reduce/default/seg0/n5/root0":          {{0x3eee8f486e1415f3, 0xb9cf8155c46c3509, 0x6a031bdd41206062}, {0x3f5dbf430e72d55d, 0xf3cedde80f85de57, 0x2667a51ffe90e091}, {0x3f7a99d5f8874c65, 0x9188a662323d6a5d, 0xca67f8e19307ecd1}},
	"tuned/reduce/default/seg0/n5/root4":          {{0x3eec766979fd5841, 0xe3c896fc39bf98e6, 0xd43b92d90d0e7ab8}, {0x3f61a5ff7125fb8c, 0x08b58e318c575c71, 0x061ac3adcff9762c}, {0x3f7a9ded35c027d0, 0x8b918d8bfc008855, 0x6f802aebcd423ebd}},
	"tuned/reduce/binomial/segoff/n16/root0":      {{0x3f05e23f7abf38e9, 0x1f2cd527127d67bd, 0x0264ddc75f4c50bb}, {0x3f73adf1fa0ebf06, 0x35ee8c151c442101, 0x75332b794474335e}, {0x3fa06c46625b6ea6, 0x6fe46ea0f8027f80, 0x938302bfe6241c3e}},
	"tuned/reduce/binomial/segoff/n16/root15":     {{0x3f06397d4f361e23, 0x24486584cb26c479, 0x9d3b1a8635956868}, {0x3f7c071338d232fd, 0x3b6a4da59389b3f7, 0xd2569ea40484e3d8}, {0x3fa5cb38b62067bd, 0x3eb05b886b46b6aa, 0xb216a9b6fa527fc7}},
	"tuned/reduce/binomial/segoff/n5/root0":       {{0x3eee8f486e1415f3, 0xb9cf8155c46c3509, 0x6a031bdd41206062}, {0x3f5dbf430e72d55d, 0xf3cedde80f85de57, 0x2667a51ffe90e091}, {0x3f87a5bc8a00ecb1, 0xfc7253dc1dfe6067, 0x5f6d9101a1642e35}},
	"tuned/reduce/binomial/segoff/n5/root4":       {{0x3eec766979fd5841, 0xe3c896fc39bf98e6, 0xd43b92d90d0e7ab8}, {0x3f61a5ff7125fb8c, 0x08b58e318c575c71, 0x061ac3adcff9762c}, {0x3f8b39dd7719c2a4, 0x9aab2ae0dc2f60cb, 0xfe5fa0d5f4bd002a}},
	"tuned/reduce/binomial/seg64k/n16/root0":      {{0x3f05e23f7abf38e9, 0x1f2cd527127d67bd, 0x0264ddc75f4c50bb}, {0x3f69f2f5ab684e1b, 0xabaa9ee23a702b29, 0x59300ccc59d8f6e1}, {0x3f946a8f66827a47, 0xf9fc734e7f0487e8, 0x29d1a17b5a121f21}},
	"tuned/reduce/binomial/seg64k/n16/root15":     {{0x3f06397d4f361e23, 0x24486584cb26c479, 0x9d3b1a8635956868}, {0x3f72120c832c5605, 0x5c45a442834867c4, 0x0da358cdc1e1f2af}, {0x3f9d1361ba37d27c, 0xa9094547722309b2, 0x12c6ce787243101a}},
	"tuned/reduce/binomial/seg64k/n5/root0":       {{0x3eee8f486e1415f3, 0xb9cf8155c46c3509, 0x6a031bdd41206062}, {0x3f6056effbd0f14a, 0x47cda2be7b2ae412, 0x6f07518c4166d26a}, {0x3f90492cc4af1bfb, 0xd2b4a4b664490e8b, 0x4d54950dbe010356}},
	"tuned/reduce/binomial/seg64k/n5/root4":       {{0x3eec766979fd5841, 0xe3c896fc39bf98e6, 0xd43b92d90d0e7ab8}, {0x3f6393c3f5406701, 0xeb3054b5ad3c8dff, 0xad2e8ade5676d158}, {0x3f9387d6813425a1, 0xbc6ac74a68edb70d, 0x70327973bfc9e24a}},
	"tuned/reduce/chain/segoff/n16/root0":         {{0x3f121a89c40e8d37, 0xca2ea736ca6fcd96, 0x8a052a0aad2b2693}, {0x3f7b728082774b7b, 0x05695e9d8d4c6154, 0x7016d62bce020592}, {0x3fa74b28b9fa28f1, 0x5f4b764e72c11495, 0x49ed890dab74e879}},
	"tuned/reduce/chain/segoff/n16/root15":        {{0x3f124628ae49ffd5, 0x9ae1ac8eedf4359d, 0x3dd15964f5abb3cd}, {0x3f7cd678cb091c70, 0x506916e3117e88a9, 0x1ecb741c81d9ced9}, {0x3fa8304a1fb3cf7f, 0x4572e399bfc2ec94, 0xcb1fb4fef667968b}},
	"tuned/reduce/chain/segoff/n5/root0":          {{0x3ef71ded9589028c, 0x13b30765293c3314, 0xf9980210be995516}, {0x3f64c6594d409c5f, 0x7209cb3bc0bbc157, 0xda48081a5bd5ba4d}, {0x3f905d1a2ce41283, 0xfc19a2e9ac8f68dc, 0xd8ec80e673bb76ea}},
	"tuned/reduce/chain/segoff/n5/root4":          {{0x3ef6117e1b7da3b3, 0xf6eacf8e78e180bd, 0x1e292152b3602fec}, {0x3f64c4406e4c85a0, 0x5ad0c9d996ef1b92, 0xa9beb82712819b01}, {0x3f905cd711058fab, 0x1f0a885480fdebde, 0x83119530a5db8387}},
	"tuned/reduce/chain/seg64k/n16/root0":         {{0x3f121a89c40e8d37, 0xca2ea736ca6fcd96, 0x8a052a0aad2b2693}, {0x3f65935d927f7120, 0x7890f1661b912d73, 0x1965ac202e1da06d}, {0x3f80c906bb867074, 0x469589e7efe375ce, 0xf8aca9caacc2e0d1}},
	"tuned/reduce/chain/seg64k/n16/root15":        {{0x3f124628ae49ffd5, 0x9ae1ac8eedf4359d, 0x3dd15964f5abb3cd}, {0x3f6632252fff1003, 0xc2a9fa0f9df98db5, 0xadb031106a1e982a}, {0x3f80f484bb7fe226, 0x734cbce684b38577, 0x963317c690865afd}},
	"tuned/reduce/chain/seg64k/n5/root0":          {{0x3ef71ded9589028c, 0x13b30765293c3314, 0xf9980210be995516}, {0x3f555cc06cb9891a, 0x17f9fea735546060, 0x70b701634a4fffb2}, {0x3f7c2726fa2e9e96, 0xe1dd978d438800ac, 0xe305df47094daf47}},
	"tuned/reduce/chain/seg64k/n5/root4":          {{0x3ef6117e1b7da3b3, 0xf6eacf8e78e180bd, 0x1e292152b3602fec}, {0x3f55851caf328258, 0x83c53e6c3d64d59b, 0x704f757c6c74eed6}, {0x3f7c313e0accdce6, 0x0755e4b119594bea, 0xb53e0458ec7b28bc}},
	"tuned/reduce/linear/segoff/n16/root0":        {{0x3efdca4055859884, 0xab086b18151487fb, 0xcd62e3c4c0554b59}, {0x3f83ea99ac099ef6, 0x3e00c18639ea68db, 0x4dbfe7164f61f898}, {0x3faf553456907722, 0x3c34d0c9e330ba1f, 0xae45ce261e0c404e}},
	"tuned/reduce/linear/segoff/n16/root15":       {{0x3f056c22e8e32de6, 0xdb504376733e0321, 0xba730b2a22d3bf55}, {0x3f83f148f2b3a775, 0xdf93507ca0ce8f26, 0x104c52061f2c323e}, {0x3faf56e0283af943, 0xdcfebceff533fcf3, 0x454c1b31d8d47a3c}},
	"tuned/reduce/linear/segoff/n5/root0":         {{0x3ee62bcc9db91f2d, 0x2cfc173ee8924d82, 0x0431c6fbd58f4a7a}, {0x3f64b37976abcfb3, 0xc75eec4ad62d27e3, 0xf25927028c9e7726}, {0x3f905abe321178ee, 0x1ef1db61761d6d70, 0x7ec38ecdf43cdd0c}},
	"tuned/reduce/linear/segoff/n5/root4":         {{0x3ee6d9bed647a869, 0x12b77420f1e8011f, 0xd1a28e0d1be2a71a}, {0x3f677f9bc5b79f1a, 0x4f6d607db236a39d, 0x5930e679a7a53226}, {0x3f9225873541cbb9, 0x6c164e5009074e39, 0x8c37bc137a91ac17}},
	"tuned/reduce/linear/seg64k/n16/root0":        {{0x3efdca4055859884, 0xab086b18151487fb, 0xcd62e3c4c0554b59}, {0x3f85f9ea560e6e38, 0x2730a0ef8ae605b7, 0xfebbbe5cc862ec5b}, {0x3fb5f8a75fef9875, 0x4fdfeb68dbc93323, 0xa59dd8f0503cc71a}},
	"tuned/reduce/linear/seg64k/n16/root15":       {{0x3f056c22e8e32de6, 0xdb504376733e0321, 0xba730b2a22d3bf55}, {0x3f86005680d9f3de, 0xf8d5f8cf96e31efd, 0xbbcb0d5061db24b6}, {0x3fb5f974e549092b, 0xa45336fa3197aa0c, 0xd237ea8e8c09c6d8}},
	"tuned/reduce/linear/seg64k/n5/root0":         {{0x3ee62bcc9db91f2d, 0x2cfc173ee8924d82, 0x0431c6fbd58f4a7a}, {0x3f66cf054778cba9, 0xde2c50d3e1c54cdd, 0xabe6133c0276df12}, {0x3f96c9f96efd74f9, 0x333f9245181851a0, 0x6a3f90b7613aa4e8}},
	"tuned/reduce/linear/seg64k/n5/root4":         {{0x3ee6d9bed647a869, 0x12b77420f1e8011f, 0xd1a28e0d1be2a71a}, {0x3f6a1091368d748b, 0xc99be1f66a3cd5c8, 0x83ebe23f8b6d9da0}, {0x3f9a093a2a372506, 0xec40a30ab26dee38, 0xfb512bdea9b80529}},
	"tuned/allreduce/default/seg0/n16/root0":      {{0x3f055c4101e139fc, 0x909277ec16521601, 0xe668fd6d4eee5d0b}, {0x3f548af4a3bb098e, 0x81318fe3cd19a3e5, 0x7fda7893d25fc58d}, {0x3f832c84f7c7393f, 0x63b8ca99c0be1c59, 0xc791a3d01693e665}},
	"tuned/allreduce/default/seg0/n5/root0":       {{0x3eefdf5d37018db8, 0xa0a3c3b89e3f4978, 0xba94d441eefa56ba}, {0x3f517775250be151, 0x0e1dbd7786934db4, 0xd3fa63bcd36f9b2f}, {0x3f7bc7738b08672f, 0x6ea9dd1f42aa63cf, 0xdfbb70d5bf49662a}},
	"tuned/allreduce/recdoubling/seg0/n16/root0":  {{0x3f055c4101e139fc, 0x909277ec16521601, 0xe668fd6d4eee5d0b}, {0x3f76e54227fb0f4a, 0x76e99fc8baa16f74, 0xc4a1e3c8483ac156}, {0x3fa03c850880314d, 0x1b659797ee51f5fa, 0x4a18c5d6ea9720ab}},
	"tuned/allreduce/recdoubling/seg0/n5/root0":   {{0x3eefdf5d37018db8, 0xa0a3c3b89e3f4978, 0xba94d441eefa56ba}, {0x3f5f95346c3641ba, 0x03787fc1d4ff8635, 0x3101728e28c5af8b}, {0x3f88d6a88698957b, 0x021eaf539075fcbd, 0x9ac90ccfcb3accba}},
	"tuned/allreduce/ring/seg0/n16/root0":         {{0x3f17bb0ec328a264, 0x2eb14f5a9d7db5f7, 0x115366ca7f6dc8bc}, {0x3f548af4a3bb098e, 0x81318fe3cd19a3e5, 0x7fda7893d25fc58d}, {0x3f832c84f7c7393f, 0x63b8ca99c0be1c59, 0xc791a3d01693e665}},
	"tuned/allreduce/ring/seg0/n5/root0":          {{0x3ef9566ebb2cb954, 0xc24f5cf109b9c356, 0xd2cb796fee88710b}, {0x3f517775250be151, 0x0e1dbd7786934db4, 0xd3fa63bcd36f9b2f}, {0x3f7bc7738b08672f, 0x6ea9dd1f42aa63cf, 0xdfbb70d5bf49662a}},
	"tuned/gather/default/seg0/n16/root0":         {{0x3ef5f926e7bb6d90, 0xd4390483c4817113, 0x6d5240d61f6d7977}, {0x3f763fce8f07a2c2, 0x2b3952aa62871e3a, 0xa7d4145dd9d069a5}, {0x3f9ca43f38af7692, 0x03b750a84f74e6db, 0x904ffdf729ea8b3b}},
	"tuned/gather/default/seg0/n16/root15":        {{0x3ef6052502eec7c9, 0x3518d30934d74097, 0xbfed8d4cdca42f79}, {0x3f764d410a423de5, 0xa9be081d8c9ee8c2, 0x3bc8ca1e435b7dc7}, {0x3f9ca79bd77e1d59, 0xa9df61d16084745b, 0xc1dd99432f2a805a}},
	"tuned/gather/default/seg0/n5/root0":          {{0x3ee0c6f7a0b5ed8d, 0xda22f4777330033d, 0x24653cf37dd42b2a}, {0x3f564f09615e846c, 0x39be410fea7ced26, 0xa729598cd6ee283f}, {0x3f7ca80ded452efc, 0x2e87aff633a24842, 0xbe17c7eb5e4c80b0}},
	"tuned/gather/default/seg0/n5/root4":          {{0x3ede32f0ee144530, 0x1296ae4f65ea0f9d, 0x9e3829f9c11f6bb5}, {0x3f5dba61a3fd0a1a, 0x34e41a8b0cfdb381, 0xb737622915d877b8}, {0x3f831a294273552e, 0x5a57e1626c4254b9, 0xa127e494070af691}},
	"tuned/scatter/default/seg0/n16/root0":        {{0x3ef457a5d942fcd5, 0x75bc92923036f0a5, 0xa4c25f572c5ed397}, {0x3f763dbc3200c8cf, 0x510fcdbec4ce826f, 0x0088ef1c32ddf26d}, {0x3f9ca3baa16dc015, 0x731aa0114fd7419a, 0x1e9a285cbcec9e77}},
	"tuned/scatter/default/seg0/n16/root15":       {{0x3f00ef3b8c9e0895, 0x5503a7a4a0325ba8, 0xdbea114c140f879a}, {0x3f764b430340c1e4, 0x585557ec2f6b2b96, 0x41b717b653fca06d}, {0x3f9ca71c55bdbe5a, 0x4496dc36508f5d25, 0x5f90d99bb06ce005}},
	"tuned/scatter/default/seg0/n5/root0":         {{0x3ede32f0ee144532, 0x075baac6ee19652c, 0xdd906c2ef4f767d4}, {0x3f564bae630b2cd6, 0x0787b34a79d8071a, 0xa7a4fde78d932098}, {0x3f7ca7372db05916, 0xca15675695047c11, 0x567452b5f12cae7d}},
	"tuned/scatter/default/seg0/n5/root4":         {{0x3ee88963c1707837, 0x0719ee6bd6dd4a5d, 0xb882528be5a34e88}, {0x3f5dc13b6b3c8795, 0x5c704db7f5f08fb9, 0x1f54303b322095a3}, {0x3f831b047b5b44dc, 0x2537477e7593ca65, 0x1e24e61f48b648a1}},
	"tuned/allgather/default/seg0/n16/root0":      {{0x3f1219ddf7977bb2, 0x127f3b9b6f7f535b, 0xdabb7d9b08e401fb}, {0x3f7c08f6c6aa29d1, 0xe0b4d213673e521d, 0x17be2639fd49eaf7}, {0x3fa1edce15e9bde7, 0x1877bb44c6adf07b, 0x8ca21ddbb4889bbf}},
	"tuned/allgather/default/seg0/n5/root0":       {{0x3ef20916fff6c5c4, 0x9255396a039966da, 0xff5eaf84d480be3c}, {0x3f5de8a8978fccb7, 0x31e627ca18d3aee2, 0x786b2d22a8354655}, {0x3f831ff220e5ad82, 0xd3aef4a994a69bcf, 0xceb1764a12cf3d56}},
}
