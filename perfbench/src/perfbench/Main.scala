package perfbench

import java.io.{File, PrintWriter}

/** Benchmark harness entry point; `perfbench/run.py` builds and launches it.
  *
  * {{{
  * Main --workload join-dense|groupby-dup8|tpch-power --seed N --seconds S
  *      --trace 0|1 [--scale full|tiny] [--wrong-answer]
  * }}}
  *
  * Untraced (`--trace 0`) runs print the end-to-end metrics. Traced runs
  * alternate untraced and traced operations, print the per-layer metrics and
  * the tracing overhead, and write their spans under `.bench_build/out`. The
  * last line of standard output is the result object.
  */
object Main {

  val EndToEnd: Seq[(String, String)] = Seq(
    "query_ms_p50" -> "ms", "query_ms_tail" -> "ms", "input_tuples_per_s" -> "tuples/s",
    "setup_s" -> "s", "alloc_mb_per_query" -> "MB")

  val PerLayer: Seq[(String, String)] =
    Layers.MpiPhases.map(p => s"mpi.phase.${p}_ms" -> "ms") ++ Seq(
      "mpi.phase_skew" -> "ratio", "mpi.bytes_cross" -> "bytes", "mpi.bytes_local" -> "bytes",
      "mpi.msgs" -> "count", "mpi.sim_wire_ms" -> "ms") ++
    Layers.MonolithPhases.map(p => s"monolith.phase.${p}_ms" -> "ms") ++ Seq(
      "plans.build_ms" -> "ms", "plans.execute_ms" -> "ms", "plans.q4_ms" -> "ms",
      "plans.q12_ms" -> "ms", "plans.q14_ms" -> "ms", "plans.q19_ms" -> "ms") ++
    Seq("BuildProbe", "LocalPartitioning", "ReduceByKey", "pipeline")
      .map(k => s"core.$k.ns_per_tuple" -> "ns/tuple") ++ Seq(
      "jvm.gc_ms_per_query" -> "ms", "jvm.gc_count_per_query" -> "count",
      "monolith_ms_p50" -> "ms", "modular_over_monolith" -> "ratio",
      "trace.overhead_ms" -> "ms")

  /** Input sizes of each workload: the benchmark's and the self-test's. */
  private def workload(name: String, seed: Long, tiny: Boolean): Workload = name match {
    case "join-dense"   => new JoinDense(seed, if (tiny) 20_000 else 1_000_000)
    case "groupby-dup8" => new GroupByDup8(seed, if (tiny) 40_000 else 2_000_000)
    case "tpch-power"   =>
      new TpchPower(seed, if (tiny) 0.002 else 0.2,
        math.min(4, Runtime.getRuntime.availableProcessors))
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect {
      case Array(k, v) if k.startsWith("--") && !v.startsWith("--") => k.drop(2) -> v
    }.toMap
    val flags = args.filter(_.startsWith("--")).map(_.drop(2)).toSet
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val tiny = opts.get("scale").contains("tiny")
    val wrong = flags("wrong-answer")

    val nproc = Runtime.getRuntime.availableProcessors
    if (Cluster.Ranks > nproc) {
      Console.err.println(s"${Cluster.Ranks} rank threads exceed nproc=$nproc")
      sys.exit(3)
    }

    val tr = new Tracer(trace)
    val off = new Tracer(false)
    val w = workload(name, seed, tiny)
    val rec = new Recorder

    // One operation of the closed loop; traced runs trace every other one.
    // Warm-up goes through the same call sites with a throwaway tracer, so
    // the first measured operation meets compiled code, not a deoptimization.
    def step(op: Int, rec: Recorder, t: Tracer): Unit =
      t.query(op)(t.span("op")(w.operate(rec, if (trace && op % 2 == 1) t else off)))

    // ---- set-up: open once, prepare (median of its repetitions), warm up
    val prepS = scala.collection.mutable.ArrayBuffer.empty[Double]
    var openS = 0.0; var warmS = 0.0
    tr.query(-1) {
      tr.span("setup") {
        openS = timeS(tr.span("setup.open")(w.open()))
        (1 to w.prepareReps).foreach(_ => prepS += timeS(tr.span("setup.prepare")(w.prepare())))
      }
      tr.span("oracle")(w.oracle(wrong))
      warmS = timeS(tr.span("setup.warmup") {
        val warm = new Tracer(trace)
        (0 until w.warmupOps).foreach(i => step(i, new Recorder, warm))
      })
    }
    val setupS = openS + Stats.median(prepS.toSeq) + warmS

    // ---- measured closed loop
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var op = 0
    do {
      step(op, rec, tr)
      op += 1
    } while (System.nanoTime() < deadline || (trace && op < 2))

    val metrics = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val q = rec.queries.map(_.ms).toSeq
    val report = scala.collection.mutable.ArrayBuffer.empty[(String, String)]
    if (!trace) {
      val tailP = Stats.tailPercentile(q.size)
      metrics("query_ms_p50") = Stats.median(q)
      metrics("query_ms_tail") = Stats.percentile(q, tailP)
      metrics("input_tuples_per_s") = w.tuplesPerOp / (Stats.mean(q) / 1e3)
      metrics("setup_s") = setupS
      metrics("alloc_mb_per_query") = Stats.mean(rec.queries.map(_.allocBytes / 1e6).toSeq)
      report ++= Seq("query_ms_tail.percentile" -> tailP.toString, "query_ms.samples" -> q.size.toString,
        "query_ms.all" -> q.map(x => f"$x%.1f").mkString(" "),
        "gc_ms.all" -> rec.queries.map(_.gcMs).mkString(" "),
        "jit_ms.all" -> rec.queries.map(_.jitMs).mkString(" "))
    } else {
      val kernels = w.kernels(tr).toMap
      PerLayer.foreach { case (m, _) =>
        metrics(m) = kernels.getOrElse(m, rec.layers.get(m).map(v => Stats.median(v.toSeq)).getOrElse(0.0))
      }
      metrics("trace.overhead_ms") =
        Stats.median(rec.tracedQueries.map(_.ms).toSeq) - Stats.median(q)
      report ++= Seq("traced_query_ms_p50" -> Stats.median(rec.tracedQueries.map(_.ms).toSeq).toString,
        "untraced_query_ms_p50" -> Stats.median(q).toString)
    }
    if (rec.monolith.nonEmpty) {
      val mono = Stats.median(rec.monolith.map(_.ms).toSeq)
      report ++= Seq("monolith_ms_p50" -> mono.toString, "modular_over_monolith" -> (Stats.median(q) / mono).toString)
      if (trace) { metrics("monolith_ms_p50") = mono; metrics("modular_over_monolith") = Stats.median(q) / mono }
    }
    report ++= Seq("failed_share" -> (rec.failed.toDouble / rec.attempted).toString,
      "attempted" -> rec.attempted.toString)
    w.close()

    val units = (EndToEnd ++ PerLayer).toMap
    metrics.foreach { case (m, v) => println(f"metric $m%-40s $v%.6g ${units(m)}") }
    report.foreach { case (k, v) => println(s"report $k = $v") }
    if (trace) {
      tr.summary.foreach { case (n, c, total, self) =>
        println(f"span $n%-32s count=$c%6d total_ms=$total%12.3f self_ms=$self%12.3f")
      }
      val out = new File(".bench_build/out")
      out.mkdirs()
      val f = new File(out, s"trace-$name-seed$seed.json")
      val pw = new PrintWriter(f); try pw.write(tr.toJson) finally pw.close()
      println(s"report trace_file = ${f.getPath}")
    }
    val env = Seq(
      "workload" -> Json.str(name), "seed" -> Json.num(seed), "seconds" -> Json.num(seconds),
      "trace" -> Json.num(if (trace) 1 else 0), "scale" -> Json.str(if (tiny) "tiny" else "full"),
      "nproc" -> Json.num(nproc), "rank_threads" -> Json.num(Cluster.Ranks),
      "machines" -> Json.num(Cluster.Machines), "ranks_per_machine" -> Json.num(Cluster.RanksPerMachine),
      "loop" -> Json.str("closed, 1 driver thread"),
      "jvm_max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1 << 20)),
      "jvm_flags" -> Json.arr(Jvm.flags.filterNot(_.startsWith("--add-opens")).map(Json.str)),
      "java_version" -> Json.str(System.getProperty("java.version")),
      "git_rev" -> Json.str(sys.props.getOrElse("perfbench.rev", "unknown")),
      "source_sha256" -> Json.str(sys.props.getOrElse("perfbench.src", "unknown")),
      "input_sizes" -> Json.obj(w.sizes.map { case (k, v) => k -> Json.num(v) }),
      "setup_parts_s" -> Json.obj(Seq("open" -> Json.num(openS),
        "prepare_median" -> Json.num(Stats.median(prepS.toSeq)), "warmup" -> Json.num(warmS),
        "warmup_ops" -> Json.num(w.warmupOps))),
      "report" -> Json.obj(report.toSeq.map { case (k, v) => k -> Json.str(v) }))
    println("env " + Json.obj(env))
    println(Json.obj(Seq(
      "correct" -> (if (rec.failed == 0) "true" else "false"),
      "attempted" -> Json.num(rec.attempted),
      "failed" -> Json.num(rec.failed),
      "metrics" -> Json.obj(metrics.toSeq.map { case (m, v) =>
        m -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(units(m))))
      }))))
    Console.out.flush()
    sys.exit(0)
  }

  private def timeS(f: => Unit): Double = {
    val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9
  }
}
