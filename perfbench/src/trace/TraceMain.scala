package perfbench.trace

import org.apache.spark.sql.SparkSession
import perfbench.{Common, Json, Workload, Workloads}
import repro.color.Coloring
import repro.core.{AGS, BuildUp, Estimators, LocalEngine, Motivo, MotivoLocalTable}
import repro.graph.LocalGraph

/** The traced run: re-composes the calls `Motivo.runSparkBuild` /
  * `Motivo.runLocal` make, plus the estimator evaluation, and wraps each
  * call in a span.
  *
  * Usage:
  *   TraceMain trace    <workload> <workloadSeed> <outFile> <sparkLocalDir>
  *   TraceMain record   <workload> <fromSeed> <untilSeed> <outFile>
  *   TraceMain selftest <workload> <workloadSeed> <outFile>
  *
  * `record` runs the local pipeline for a range of workload seeds in one
  * JVM, untimed, for the reference values.
  */
object TraceMain {

  def main(args: Array[String]): Unit = args.toList match {
    case "trace" :: name :: seed :: out :: localDir :: Nil => trace(Workloads(name), seed.toLong, out, localDir)
    case "record" :: name :: from :: until :: out :: Nil => record(Workloads(name), from.toLong, until.toLong, out)
    case "selftest" :: name :: seed :: out :: Nil => selftest(Workloads(name), seed.toLong, out)
    case _ => throw new IllegalArgumentException(s"bad arguments: ${args.mkString(" ")}")
  }

  /** Outputs the check compares, plus what the per-layer metrics need. */
  final case class Outputs(t: BigInt, pairs: Seq[Long], naiveHits: Map[Long, Long],
                           naive: Map[Long, Double], agsResult: Option[AGS.AGSResult],
                           ags: Map[Long, Double], local: LocalEngine.Result,
                           table: MotivoLocalTable, build: Option[BuildUp.Result], stats: SampleStats,
                           agsSampler: Option[TracedSampler])

  /** One pipeline. With `spark` given, build on Spark and collect (as
    * `runSparkBuild`); otherwise build with the local DP (as `runLocal`).
    */
  def pipeline(w: Workload, g: LocalGraph, spark: Option[SparkSession], tr: Tracer): Outputs = {
    val seed = Workloads.MotivoSeed
    val coloring = w.coloring
    val (local, build) = spark match {
      case Some(s) =>
        val build = tr.span("buildup") { sp =>
          sp.attrs("epoch_start_ms") = System.currentTimeMillis()
          val b = BuildUp.runLocalGraph(s, g, coloring)
          sp.attrs("epoch_end_ms") = System.currentTimeMillis()
          b
        }
        val local = tr.span("collect") { _ => build.toLocalResult(g, colorsOf(w, g)) }
        (local, Some(build))
      case None =>
        val local = tr.span("localdp") { _ => LocalEngine.buildUp(g, colorsOf(w, g), w.k) }
        (local, None)
    }
    val table = tr.span("table.compact") { _ => MotivoLocalTable.fromResult(local) }
    val stats = new SampleStats
    val naiveSampler =
      if (w.doNaive) Some(new TracedSampler(table, seed + 1, tr, stats, "naive.batch", sigma = false)) else None
    val naiveHits = naiveSampler.map(s => tr.span("naive") { _ => AGS.naive(s, w.budget) })
    val agsSampler =
      if (w.doAGS) Some(new TracedSampler(table, seed + 2, tr, stats, "ags.batch", sigma = true)) else None
    val agsResult = agsSampler.map(s => tr.span("ags") { _ => AGS.run(s, w.budget, cbar = w.cbar) })
    build.foreach(b => tr.span("unpersist") { _ => b.unpersist() })
    val (naive, ags) = tr.span("estimate") { _ =>
      val n = naiveHits match {
        case Some(h) if w.budget > 0 =>
          Estimators.naiveCounts(h, w.budget, table.totalTreelets, w.k, coloring.pColorful)
        case _ => Map.empty[Long, Double]
      }
      (n, agsResult.map(_.counts(coloring.pColorful)).getOrElse(Map.empty[Long, Double]))
    }
    val pairs = (1 to w.k).map(h => local.tables(h).iterator.map(_.size.toLong).sum)
    Outputs(table.totalTreelets, pairs, naiveHits.getOrElse(Map.empty), naive, agsResult, ags,
            local, table, build, stats, agsSampler)
  }

  private def trace(w: Workload, workloadSeed: Long, out: String, localDir: String): Unit = {
    val tr = new Tracer
    val (g, graphGenS) = tr.span("setup") { _ =>
      val t0 = System.nanoTime()
      (w.graph(workloadSeed), Common.secondsSince(t0))
    }
    val spark = if (w.spark) Some(tr.span("spark.session") { _ => Workloads.sparkSession(localDir) }) else None
    val listener = new BuildUpListener
    spark.foreach(_.sparkContext.addSparkListener(listener))

    val o = tr.span("e2e") { _ => pipeline(w, g, spark, tr) }
    val rssMb = Common.peakRssMb()

    // Outside the traced pipeline: listener totals, plan sizes, reference DP.
    val sparkMetrics: Map[String, Any] = spark match {
      case None => Map.empty
      case Some(s) =>
        listener.drain(s.sparkContext)
        val b = tr.one("buildup")
        val lv = listener.levels(b.attrs("epoch_start_ms").asInstanceOf[Long],
                                 b.attrs("epoch_end_ms").asInstanceOf[Long])
        val ref = LocalEngine.buildUp(g, colorsOf(w, g), w.k)
        val planNodes = (1 to w.k).map(h => o.build.get.level(h).queryExecution.logical.collect { case p => p }.size)
        Map(
          "listener_levels" -> lv.size,
          "level_s" -> lv.map(_.seconds),
          "level_tasks" -> lv.map(_.tasks),
          "shuffle_read_bytes" -> lv.map(_.readBytes),
          "shuffle_write_bytes" -> lv.map(_.writeBytes),
          "plan_nodes" -> planNodes,
          "collect_rows" -> o.pairs.sum,
          "local_t" -> ref.totalTreelets,
          "local_tables_equal" -> (1 to w.k).forall(h => ref.tables(h).sameElements(o.local.tables(h))),
        )
    }
    spark.foreach(_.stop())

    Json.writeFile(out, Common.header(w, workloadSeed) ++ Map(
      "mode" -> "trace",
      "graph_gen_s" -> graphGenS,
      "graph_n" -> g.n, "graph_m" -> g.m, "graph_max_deg" -> g.maxDegree,
      "e2e_s" -> tr.one("e2e").seconds,
      "peak_rss_mb" -> rssMb,
      "spark" -> sparkMetrics,
      "table_pairs" -> o.table.pairCount,
      "table_bytes" -> o.table.byteSize,
      "sampler" -> Map(
        "samples" -> o.stats.samples,
        "treelet_s" -> o.stats.treeletNs / 1e9,
        "canonical_s" -> o.stats.canonicalNs / 1e9,
        "sigma_s" -> o.stats.sigmaNs / 1e9,
        "sigma_calls" -> o.stats.sigmaCalls,
        "distinct_raw" -> o.stats.rawCodes.size,
        "distinct" -> o.stats.codes.size),
      "ags_stats" -> Map(
        "batches" -> o.agsSampler.map(_.batches).getOrElse(0),
        "shape_switches" -> o.agsSampler.map(_.shapeSwitches).getOrElse(0),
        "covered" -> o.agsResult.map(_.covered.size).getOrElse(0),
        "samples" -> o.agsResult.map(_.samplesTaken).getOrElse(0L)),
      "spans" -> tr.toJson,
    ) ++ checked(o))
  }

  /** Vertex colors as `Motivo.run*` computes them. */
  private def colorsOf(w: Workload, g: LocalGraph): Array[Int] = {
    val c = w.coloring
    Array.tabulate(g.n)(v => c.colorOf(v.toLong))
  }

  /** The fields the output check reads, shared by trace and record. */
  private def checked(o: Outputs): Map[String, Any] = Map(
    "t" -> o.t,
    "pairs" -> o.pairs,
    "naive" -> Common.estimates(o.naiveHits, o.naive),
    "ags" -> Common.estimates(o.agsResult.map(_.hits).getOrElse(Map.empty), o.ags),
  )

  /** Outputs for seeds [from, until), all through the local DP in one JVM
    * (the Spark build is checked against the local DP on every run).
    */
  private def record(w: Workload, from: Long, until: Long, out: String): Unit = {
    val rows = (from until until).map { s =>
      val o = pipeline(w, w.graph(s), None, new Tracer)
      Map("workload_seed" -> s) ++ checked(o)
    }
    Json.writeFile(out, Map("workload" -> w.name, "seeds" -> rows))
  }

  /** The traced sampler and `Motivo.LocalShapeSampler` draw identical codes
    * for the same seed, unrestricted and per shape.
    */
  private def selftest(w: Workload, workloadSeed: Long, out: String): Unit = {
    val seed = Workloads.MotivoSeed
    val g = w.graph(workloadSeed)
    val local = LocalEngine.buildUp(g, colorsOf(w, g), w.k)
    val plain = new Motivo.LocalShapeSampler(MotivoLocalTable.fromResult(local), seed)
    val traced = new TracedSampler(MotivoLocalTable.fromResult(local), seed, new Tracer,
                                   new SampleStats, "batch", sigma = true)
    val shapes = None +: plain.totalsByShape.toSeq.sortBy(-_._2).take(3).map(s => Some(s._1))
    val rounds = for (round <- 0 until 3; shape <- shapes) yield {
      val a = plain.sampleBatch(shape, 500)
      val b = traced.sampleBatch(shape, 500)
      Map("round" -> round, "shape" -> shape.map(_.toString).getOrElse("any"),
          "samples" -> a.size, "identical" -> (a == b))
    }
    Json.writeFile(out, Map("workload" -> w.name, "workload_seed" -> workloadSeed, "rounds" -> rounds))
  }
}
