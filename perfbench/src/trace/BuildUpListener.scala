package perfbench.trace

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Collects per-job and per-stage figures of the Spark build-up.
  *
  * `BuildUp.run` materializes each level with one `count()`, in level
  * order, and every job of one `count()` (adaptive execution can add some)
  * carries the same SQL execution id. So the SQL executions started inside
  * the build-up span, in start order, are levels 1..k.
  */
final class BuildUpListener extends SparkListener {
  final class Job(val id: Int, val execution: Option[Long], val start: Long, val stageIds: Seq[Int]) {
    @volatile var end: Long = -1L
  }
  final class Stage(val tasks: Int, val readBytes: Long, val writeBytes: Long)

  private val jobs = mutable.ArrayBuffer.empty[Job]
  private val stages = mutable.HashMap.empty[Int, Stage]
  @volatile private var markerSeen = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    if (props.exists(_.getProperty(BuildUpListener.MarkerKey) != null)) return
    val exec = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).map(_.toLong)
    jobs += new Job(e.jobId, exec, e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.find(_.id == e.jobId) match {
      case Some(j) => j.end = e.time
      case None => markerSeen = true
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val m = info.taskMetrics
    stages(info.stageId) =
      if (m == null) new Stage(info.numTasks, 0L, 0L)
      else new Stage(info.numTasks, m.shuffleReadMetrics.totalBytesRead, m.shuffleWriteMetrics.bytesWritten)
  }

  /** Run a marker job and wait until its end event arrives: events reach a
    * listener in order, so every earlier job and stage has been seen.
    */
  def drain(sc: SparkContext, timeoutMs: Long = 30000): Unit = {
    sc.setLocalProperty(BuildUpListener.MarkerKey, "1")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(BuildUpListener.MarkerKey, null)
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!markerSeen) {
      if (System.currentTimeMillis() > deadline)
        throw new IllegalStateException("Spark listener events did not arrive")
      Thread.sleep(5)
    }
  }

  final case class Level(seconds: Double, tasks: Int, readBytes: Long, writeBytes: Long)

  /** Per-level figures for executions whose first job started within
    * [fromMs, toMs] (epoch milliseconds).
    */
  def levels(fromMs: Long, toMs: Long): Seq[Level] = synchronized {
    val inWindow = jobs.filter(j => j.start >= fromMs && j.start <= toMs && j.execution.isDefined)
    inWindow.groupBy(_.execution.get).values.toSeq.sortBy(_.map(_.start).min).map { js =>
      val st = js.flatMap(_.stageIds).distinct.flatMap(stages.get)
      Level((js.map(_.end).max - js.map(_.start).min) / 1e3,
            st.map(_.tasks).sum, st.map(_.readBytes).sum, st.map(_.writeBytes).sum)
    }
  }
}

object BuildUpListener {
  val MarkerKey = "perfbench.marker"
}
