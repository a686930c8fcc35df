package main

import (
	"fmt"
	"math/rand"
	"strings"

	"delinq/internal/workerpool"
)

// Working-set sizes in 4-byte words: 2 KiB to 128 KiB, so kernels land
// inside the 8 KiB baseline cache, between it and the 64 KiB geometry,
// and beyond every standard geometry.
var wsWords = []int{512, 1024, 2048, 4096, 8192, 16384, 32768}

// accessBudget is roughly how many data accesses one kernel makes, so
// a program's cost does not grow with its working set.
const accessBudget = 1000

// maxSweep caps the elements one pass over an array visits; larger
// arrays are walked at a coarser stride, so a pass still spans the
// whole working set.
const maxSweep = 1024

// kernels is how many kernels each program calls; a fixed count keeps
// the spread of per-request cost, and so of the latency tail, narrow.
const kernels = 3

// genJob returns the analyze job for request i of a seeded stream.
// Within a stream every request is a distinct source: the seed and i
// are folded into a constant the program prints.
func genJob(seed int64, i int) workerpool.Job {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	job := workerpool.Job{Kind: workerpool.JobAnalyze}
	job.Source = genSource(rng, seed, i)
	// Seeded mix: a third ARM, half optimised, a quarter interprocedural.
	if rng.Intn(3) == 0 {
		job.ISA = "arm"
	}
	job.Optimize = rng.Intn(2) == 0
	job.Inter = rng.Intn(4) == 0
	return job
}

func genSource(rng *rand.Rand, seed int64, i int) string {
	var g, fns, calls strings.Builder
	g.WriteString("struct node { int v; struct node *next; int pad[14]; };\n")
	for k := 0; k < kernels; k++ {
		words := wsWords[rng.Intn(len(wsWords))]
		switch rng.Intn(4) {
		case 0:
			strided(&g, &fns, rng, k, words)
		case 1:
			indexChase(&g, &fns, rng, k, words)
		case 2:
			listChase(&fns, k, words)
		default:
			scalar(&g, &fns, rng, k)
		}
		fmt.Fprintf(&calls, "\ts = s + k%d(%d);\n", k, 1+rng.Intn(7))
	}
	return fmt.Sprintf(`%s%s
int main() {
	int s = %d;
%s	print_int(s);
	return 0;
}
`, g.String(), fns.String(), (seed%10_000)*100_000+int64(i), calls.String())
}

// strided sweeps a global array at a power-of-two stride.
func strided(g, fns *strings.Builder, rng *rand.Rand, k, words int) {
	stride := 1 << rng.Intn(4)
	for words/stride > maxSweep {
		stride *= 2
	}
	per := words / stride
	passes := accessBudget/per + 1
	fmt.Fprintf(g, "int a%d[%d];\n", k, words)
	fmt.Fprintf(fns, `int k%d(int c) {
	int i; int r; int s = 0;
	for (i = 0; i < %d; i = i + %d) a%d[i] = i * c;
	for (r = 0; r < %d; r++)
		for (i = 0; i < %d; i = i + %d) s = s + a%d[i];
	return s;
}
`, k, words, stride, k, passes, words, stride, k)
}

// indexChase follows a chain of indices stored in an array: each
// load's address depends on the value the previous load returned.
func indexChase(g, fns *strings.Builder, rng *rand.Rand, k, words int) {
	mul := 2*rng.Intn(1000) + 1
	fmt.Fprintf(g, "int n%d[%d];\n", k, words)
	fmt.Fprintf(fns, `int k%d(int c) {
	int i; int p = c; int s = 0;
	for (i = 0; i < %d; i = i + 8) n%d[i] = (i * %d + 8) & %d;
	for (i = 0; i < %d; i++) { p = n%d[p & %d]; s = s + p; }
	return s;
}
`, k, words, k, mul, words-8, accessBudget, k, words-8)
}

// listChase builds a malloc'd linked list of 64-byte nodes and walks it.
func listChase(fns *strings.Builder, k, words int) {
	nodes := min(words/16, maxSweep)
	passes := accessBudget/nodes + 1
	fmt.Fprintf(fns, `int k%d(int c) {
	int i; int r; int s = 0;
	struct node *h = 0;
	for (i = 0; i < %d; i++) {
		struct node *nn = malloc(sizeof(struct node));
		nn->v = i + c; nn->next = h; h = nn;
	}
	for (r = 0; r < %d; r++) {
		struct node *p = h;
		while (p) { s = s + p->v; p = p->next; }
	}
	return s;
}
`, k, nodes, passes)
}

// scalar is register and stack traffic with one global.
func scalar(g, fns *strings.Builder, rng *rand.Rand, k int) {
	fmt.Fprintf(g, "int g%d = %d;\n", k, rng.Intn(1000))
	fmt.Fprintf(fns, `int k%d(int c) {
	int i; int x = c;
	for (i = 0; i < %d; i++) { x = x * 3 + i; g%d = g%d ^ (x >> 3); }
	return x + g%d;
}
`, k, accessBudget, k, k, k)
}
