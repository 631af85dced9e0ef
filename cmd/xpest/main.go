// Command xpest drives the XPath estimation system from the shell:
//
//	xpest gen -dataset XMark -scale 0.1 -o xmark.xml
//	    generate a synthetic dataset as XML
//
//	xpest stats -in xmark.xml
//	    print document and summary statistics (Table 1 / Table 3 style)
//
//	xpest estimate -in xmark.xml -pvar 1 -ovar 2 "//item[/name/folls::payment]"
//	    estimate one or more queries and compare with the exact count
//
//	xpest experiments -run all -scale 0.125
//	    regenerate the paper's tables and figures (table1..table5,
//	    fig9..fig13, or all)
//
//	xpest serve -addr :8321 -summaries ./summaries
//	    run the hardened HTTP estimation service
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xpathest"
	"xpathest/internal/datagen"
	"xpathest/internal/experiments"
	"xpathest/internal/xmltree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "xpest: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpest:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: xpest <command> [flags]

commands:
  gen          generate a synthetic dataset (SSPlays, DBLP, XMark) as XML
  build        build a summary from a document and save it to a file
  stats        print document, labeling and summary statistics
  estimate     estimate query selectivities against a document or a saved summary
  workload     generate a Section 7 query workload as CSV (query, exact, kind)
  experiments  regenerate the paper's tables and figures
  serve        run the hardened HTTP estimation service (see docs/OPERATIONS.md)

run 'xpest <command> -h' for command flags
`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "SSPlays", "dataset: SSPlays, DBLP or XMark")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Float64("scale", 0.125, "size scale (1.0 ≈ paper size)")
	out := fs.String("o", "", "output file (default stdout)")
	indent := fs.Bool("indent", false, "indent the XML output")
	fs.Parse(args)

	var doc *xmltree.Document
	for _, ds := range datagen.Datasets() {
		if strings.EqualFold(ds.Name, *dataset) {
			doc = ds.Gen(datagen.Config{Seed: *seed, Scale: *scale})
		}
	}
	if doc == nil {
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return doc.WriteXML(w, *indent)
}

// loadOrGenerate resolves the -in / -dataset pair shared by stats and
// estimate.
func loadOrGenerate(in, dataset string, seed int64, scale float64) (*xpathest.Document, error) {
	if in != "" {
		return xpathest.LoadDocument(in)
	}
	return xpathest.GenerateDataset(xpathest.Dataset(dataset), seed, scale)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input XML file (omit to use -dataset)")
	dataset := fs.String("dataset", "SSPlays", "built-in dataset when -in is empty")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Float64("scale", 0.125, "generator scale")
	pvar := fs.Float64("pvar", 0, "p-histogram variance threshold")
	ovar := fs.Float64("ovar", 0, "o-histogram variance threshold")
	fs.Parse(args)

	doc, err := loadOrGenerate(*in, *dataset, *seed, *scale)
	if err != nil {
		return err
	}
	sum := doc.BuildSummary(xpathest.SummaryOptions{PVariance: *pvar, OVariance: *ovar})
	sz := sum.Sizes()
	fmt.Printf("document:      %d elements, %d distinct tags, %.1f KB\n",
		doc.NumElements(), doc.NumDistinctTags(), float64(doc.SizeBytes())/1024)
	fmt.Printf("labeling:      %d distinct root-to-leaf paths, %d distinct path ids\n",
		doc.NumDistinctPaths(), doc.NumDistinctPathIDs())
	fmt.Printf("summary (p-variance %g, o-variance %g):\n", *pvar, *ovar)
	fmt.Printf("  encoding table:      %6.2f KB\n", float64(sz.EncodingTableBytes)/1024)
	fmt.Printf("  pid binary tree:     %6.2f KB\n", float64(sz.PidBinaryTreeBytes)/1024)
	fmt.Printf("  p-histogram:         %6.2f KB\n", float64(sz.PHistogramBytes)/1024)
	fmt.Printf("  o-histogram:         %6.2f KB\n", float64(sz.OHistogramBytes)/1024)
	fmt.Printf("  total:               %6.2f KB\n", float64(sz.Total())/1024)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input XML file (omit to use -dataset)")
	dataset := fs.String("dataset", "SSPlays", "built-in dataset when -in is empty")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Float64("scale", 0.125, "generator scale")
	pvar := fs.Float64("pvar", 0, "p-histogram variance threshold")
	ovar := fs.Float64("ovar", 0, "o-histogram variance threshold")
	out := fs.String("o", "summary.xps", "output summary file")
	stream := fs.Bool("stream", false, "summarize -in by streaming (one pass, tree never materialized)")
	fs.Parse(args)

	var (
		sum *xpathest.Summary
		err error
	)
	if *stream {
		if *in == "" {
			return fmt.Errorf("build: -stream requires -in")
		}
		sum, err = xpathest.SummarizeFile(*in, xpathest.SummaryOptions{PVariance: *pvar, OVariance: *ovar})
		if err != nil {
			return err
		}
	} else {
		doc, err := loadOrGenerate(*in, *dataset, *seed, *scale)
		if err != nil {
			return err
		}
		sum = doc.BuildSummary(xpathest.SummaryOptions{PVariance: *pvar, OVariance: *ovar})
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sum.Save(f); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.2f KB serialized (in-memory model %.2f KB)\n",
		*out, float64(st.Size())/1024, float64(sum.Sizes().Total())/1024)
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	in := fs.String("in", "", "input XML file (omit to use -summary or -dataset)")
	summary := fs.String("summary", "", "saved summary file (no exact evaluation available)")
	dataset := fs.String("dataset", "SSPlays", "built-in dataset when -in and -summary are empty")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Float64("scale", 0.125, "generator scale")
	pvar := fs.Float64("pvar", 0, "p-histogram variance threshold")
	ovar := fs.Float64("ovar", 0, "o-histogram variance threshold")
	exact := fs.Bool("no-exact", false, "skip exact evaluation (estimates only)")
	explain := fs.Bool("explain", false, "print the derivation of each estimate")
	fs.Parse(args)
	queries := fs.Args()
	if len(queries) == 0 {
		return fmt.Errorf("estimate: no queries given")
	}

	var (
		doc *xpathest.Document
		sum *xpathest.Summary
		err error
	)
	if *summary != "" {
		f, err := os.Open(*summary)
		if err != nil {
			return err
		}
		sum, err = xpathest.ReadSummary(f)
		f.Close()
		if err != nil {
			return err
		}
		*exact = true // no document to evaluate against
	} else {
		doc, err = loadOrGenerate(*in, *dataset, *seed, *scale)
		if err != nil {
			return err
		}
		sum = doc.BuildSummary(xpathest.SummaryOptions{PVariance: *pvar, OVariance: *ovar})
	}
	for _, q := range queries {
		canon, err := xpathest.ParseQuery(q)
		if err != nil {
			return err
		}
		if *explain {
			x, err := sum.Explain(q)
			if err != nil {
				return err
			}
			fmt.Print(x.String())
			continue
		}
		est, err := sum.Estimate(q)
		if err != nil {
			return err
		}
		if *exact {
			fmt.Printf("%-50s estimate %10.2f\n", canon, est)
			continue
		}
		truth, err := doc.ExactCount(q)
		if err != nil {
			return err
		}
		rel := 0.0
		if truth > 0 {
			rel = abs(est-float64(truth)) / float64(truth)
		}
		fmt.Printf("%-50s estimate %10.2f   exact %8d   rel.err %6.2f%%\n",
			canon, est, truth, 100*rel)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	in := fs.String("in", "", "input XML file (omit to use -dataset)")
	dataset := fs.String("dataset", "SSPlays", "built-in dataset when -in is empty")
	seed := fs.Int64("seed", 1, "generator and workload seed")
	scale := fs.Float64("scale", 0.125, "generator scale")
	simple := fs.Int("simple", 4000, "simple-query generation attempts")
	branch := fs.Int("branch", 4000, "branch-query generation attempts")
	out := fs.String("o", "", "output CSV file (default stdout)")
	fs.Parse(args)

	doc, err := loadOrGenerate(*in, *dataset, *seed, *scale)
	if err != nil {
		return err
	}
	qs := doc.GenerateWorkload(xpathest.WorkloadOptions{
		Seed: *seed, NumSimple: *simple, NumBranch: *branch,
	})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"query", "exact", "kind", "target"}); err != nil {
		return err
	}
	for _, q := range qs {
		kind := "simple"
		switch {
		case q.HasOrderAxis:
			kind = "order"
		case strings.Contains(q.Query, "["):
			kind = "branch"
		}
		target := "branch"
		if q.TargetInTrunk {
			target = "trunk"
		}
		if err := cw.Write([]string{q.Query, strconv.Itoa(q.Exact), kind, target}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	run := fs.String("run", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+", or all")
	seed := fs.Int64("seed", 42, "seed for datasets and workloads")
	scale := fs.Float64("scale", 0.125, "dataset scale (1.0 ≈ paper size)")
	simple := fs.Int("simple", 4000, "simple-query generation attempts")
	branch := fs.Int("branch", 4000, "branch-query generation attempts")
	fs.Parse(args)

	fmt.Fprintf(os.Stderr, "preparing datasets (seed %d, scale %g)...\n", *seed, *scale)
	envs := experiments.Setup(experiments.Options{
		Seed: *seed, Scale: *scale, NumSimple: *simple, NumBranch: *branch,
	})
	return experiments.Run(*run, envs, os.Stdout)
}
