package coll

import (
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
