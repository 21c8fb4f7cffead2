package perfbench

import repro.core.Motivo

/** One cold, untraced pipeline in a fresh JVM: set up the graph (and the
  * SparkSession for the Spark workload), then time one `Motivo.run*` call
  * plus the evaluation of its estimates. Writes one JSON result file.
  *
  * Usage: E2EMain <workload> <workloadSeed> <outFile> <sparkLocalDir> [setup]
  *
  * With `setup`, the JVM stops after set-up: the runner uses such JVMs to
  * take more set-up samples than there are pipelines.
  */
object E2EMain {

  def main(args: Array[String]): Unit = {
    val Array(name, seedArg, out, localDir) = args.take(4)
    val setupOnly = args.drop(4).sameElements(Seq("setup"))
    val w = Workloads(name)
    val seed = Workloads.MotivoSeed

    val g0 = System.nanoTime()
    val g = w.graph(seedArg.toLong)
    val graphGenS = Common.secondsSince(g0)
    val spark = if (w.spark) Some(Workloads.sparkSession(localDir)) else None
    val setupEnd = Common.epochSeconds()
    if (setupOnly) {
      spark.foreach(_.stop())
      Json.writeFile(out, Common.header(w, seedArg.toLong) ++ Map(
        "mode" -> "setup", "setup_end_epoch_s" -> setupEnd, "graph_gen_s" -> graphGenS))
      return
    }

    val e0 = System.nanoTime()
    val run = spark match {
      case Some(s) => Motivo.runSparkBuild(s, g, w.k, w.budget, seed, cbar = w.cbar,
                                           doNaive = w.doNaive, doAGS = w.doAGS)
      case None => Motivo.runLocal(g, w.k, w.budget, seed, cbar = w.cbar,
                                   doNaive = w.doNaive, doAGS = w.doAGS)
    }
    val naive = run.naiveCounts
    val ags = run.agsCounts
    val e2eS = Common.secondsSince(e0)
    val rssMb = Common.peakRssMb()

    // Cross-backend reference for the Spark build, outside the timed region.
    val localT = spark.map(_ => Motivo.runLocal(g, w.k, 1L, seed, doNaive = false, doAGS = false).totalTreelets)
    spark.foreach(_.stop())

    Json.writeFile(out, Common.header(w, seedArg.toLong) ++ Map(
      "mode" -> "e2e",
      "setup_end_epoch_s" -> setupEnd,
      "graph_gen_s" -> graphGenS,
      "e2e_s" -> e2eS,
      "peak_rss_mb" -> rssMb,
      "t" -> run.totalTreelets,
      "local_t" -> localT,
      "naive" -> Common.estimates(run.naiveHits.getOrElse(Map.empty), naive),
      "ags" -> Common.estimates(run.ags.map(_.hits).getOrElse(Map.empty), ags),
      "ags_samples" -> run.ags.map(_.samplesTaken).getOrElse(0L),
      "ags_covered" -> run.ags.map(_.covered.size).getOrElse(0),
    ))
  }
}

object Common {
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def epochSeconds(): Double = {
    val i = java.time.Instant.now()
    i.getEpochSecond + i.getNano / 1e9
  }

  /** Resident-set high-water mark of this process (VmHWM), in MiB. */
  def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try {
      src.getLines().collectFirst {
        case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
      }.getOrElse(throw new IllegalStateException("no VmHWM in /proc/self/status"))
    } finally src.close()
  }

  def header(w: Workload, workloadSeed: Long): Map[String, Any] = Map(
    "workload" -> w.name,
    "graph" -> w.graphName,
    "k" -> w.k,
    "budget" -> w.budget,
    "workload_seed" -> workloadSeed,
    "motivo_seed" -> Workloads.MotivoSeed,
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "jdk" -> System.getProperty("java.runtime.version"),
    "spark_version" -> org.apache.spark.SPARK_VERSION,
  )

  /** Per graphlet code: hits and the uncolored count estimate. */
  def estimates(hits: Map[Long, Long], est: Map[Long, Double]): Map[String, Any] = Map(
    "hits" -> hits.map { case (c, h) => c.toString -> h },
    "est" -> est.map { case (c, e) => c.toString -> e },
  )
}
